package main

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/eval"
)

func TestResolve(t *testing.T) {
	table := eval.Experiments()
	canonical := func(exps []eval.Experiment) []string {
		var ids []string
		for _, e := range exps {
			ids = append(ids, e.IDs[0])
		}
		return ids
	}
	want := []string{"table1", "section31", "l1sparsity", "fig5", "fig4", "fig7", "table2a", "table2b",
		"fig9a", "fig9b", "table3", "chipscale", "earlyexit", "ablations", "faults"}
	cases := []struct {
		spec string
		want []string // nil: must fail
	}{
		{"all", want},
		{"fig8", []string{"fig7"}},
		{" fig5 , table2a", []string{"fig5", "table2a"}},
		{"fig7,fig7", []string{"fig7", "fig7"}},
		{"fig8,fig7", []string{"fig7", "fig7"}},
		{"nosuch", nil},
		{"fig5,nosuch", nil},
		{"", nil},
		{"table1,", nil},
		{"fig5,,fig4", nil},
	}
	for _, tc := range cases {
		got, err := resolve(tc.spec, table)
		if tc.want == nil {
			if err == nil {
				t.Errorf("resolve(%q) = %v, want an error", tc.spec, canonical(got))
			} else if !strings.Contains(err.Error(), "valid ids: all, table1, section31") {
				t.Errorf("resolve(%q) error %q does not list the valid ids", tc.spec, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("resolve(%q): %v", tc.spec, err)
		} else if ids := canonical(got); !slices.Equal(ids, tc.want) {
			t.Errorf("resolve(%q) = %v, want %v", tc.spec, ids, tc.want)
		}
	}
	if _, err := resolve("fig5,nosuch", table); err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
		t.Errorf("error %v does not name the bad id", err)
	}
}
