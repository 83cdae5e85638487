package main

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
)

func TestCheckModelBench(t *testing.T) {
	net := func(inputs, classes int) *nn.Network {
		n := &nn.Network{Layers: []*nn.CoreLayer{{InDim: inputs}}}
		if classes > 0 {
			n.Readout = &nn.MergeReadout{Classes: classes}
		}
		return n
	}
	digits := &dataset.Dataset{Name: "digits-test", FeatDim: 784, NumClasses: 10}
	protein := &dataset.Dataset{Name: "protein-test", FeatDim: 357, NumClasses: 3}
	cases := []struct {
		name string
		net  *nn.Network
		test *dataset.Dataset
		ok   bool
	}{
		{"digits-on-digits", net(784, 10), digits, true},
		{"protein-on-protein", net(361, 3), protein, true},
		{"protein-on-digits", net(361, 3), digits, false},
		{"digits-on-protein", net(784, 10), protein, false},
		{"narrow-input", net(783, 10), digits, false},
		{"no-readout", net(784, 0), digits, false},
	}
	for _, tc := range cases {
		err := checkModelBench(tc.net, tc.test)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
