package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// tinyNet builds a small two-layer network for structural tests:
// 8 inputs -> 2 cores of 3 neurons (exports 2) -> 1 core of 4 neurons -> 2 classes.
func tinyNet(t *testing.T, seed uint64) *Network {
	t.Helper()
	src := rng.NewPCG32(seed, 1)
	mk := func(in []int, neurons, exports int) *CoreSpec {
		return &CoreSpec{
			In:      in,
			W:       newUniformMatrix(src, neurons, len(in), 0.6),
			Bias:    make([]float64, neurons),
			Exports: exports,
		}
	}
	l1 := &CoreLayer{InDim: 8, Cores: []*CoreSpec{
		mk([]int{0, 1, 2, 3}, 3, 2),
		mk([]int{4, 5, 6, 7}, 3, 2),
	}}
	l2 := &CoreLayer{InDim: 4, Cores: []*CoreSpec{
		mk([]int{0, 1, 2, 3}, 4, 4),
	}}
	net := &Network{
		Layers:     []*CoreLayer{l1, l2},
		Readout:    NewMergeReadout(4, 2, 5),
		CMax:       1,
		SigmaFloor: 0.05,
	}
	// Non-zero biases exercise the bias path.
	for _, l := range net.Layers {
		for _, c := range l.Cores {
			for j := range c.Bias {
				c.Bias[j] = (rng.Float64(src) - 0.5) * 0.4
			}
		}
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	return net
}

func tinyInput(seed uint64, n int) []float64 {
	src := rng.NewPCG32(seed, 2)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64(src)
	}
	return x
}

func TestValidateCatchesBadWiring(t *testing.T) {
	net := tinyNet(t, 1)
	net.Layers[1].Cores[0].In[0] = 99
	if err := net.Validate(); err == nil {
		t.Fatal("out-of-range input index accepted")
	}

	net = tinyNet(t, 1)
	net.Layers[0].Cores[0].Exports = 10
	if err := net.Validate(); err == nil {
		t.Fatal("exports > neurons accepted")
	}

	net = tinyNet(t, 1)
	net.Layers[1].InDim = 7
	if err := net.Validate(); err == nil {
		t.Fatal("inter-layer dim mismatch accepted")
	}

	net = tinyNet(t, 1)
	net.CMax = 0
	if err := net.Validate(); err == nil {
		t.Fatal("zero CMax accepted")
	}
}

func TestNumCoresAndWeights(t *testing.T) {
	net := tinyNet(t, 1)
	if net.NumCores() != 3 {
		t.Fatalf("NumCores = %d, want 3", net.NumCores())
	}
	want := 3*4 + 3*4 + 4*4
	if net.NumWeights() != want {
		t.Fatalf("NumWeights = %d, want %d", net.NumWeights(), want)
	}
	if len(net.Weights()) != want {
		t.Fatalf("Weights() length %d", len(net.Weights()))
	}
}

func TestProbabilitiesInUnitInterval(t *testing.T) {
	net := tinyNet(t, 3)
	for _, p := range net.Probabilities() {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v outside [0,1]", p)
		}
	}
}

func TestForwardActivationsAreProbabilities(t *testing.T) {
	net := tinyNet(t, 4)
	s := net.newScratch()
	out := net.forward(s, tinyInput(4, 8))
	if len(out) != 4 {
		t.Fatalf("output dim %d", len(out))
	}
	for i, a := range out {
		if a < 0 || a > 1 || math.IsNaN(a) {
			t.Fatalf("activation %d = %v not a probability", i, a)
		}
	}
}

func TestForwardMatchesManualSingleNeuron(t *testing.T) {
	// One core, one neuron, two inputs: check Eq. 9/14/11 by hand.
	c := &CoreSpec{
		In:      []int{0, 1},
		W:       tensor.FromSlice(1, 2, []float64{0.6, -0.8}),
		Bias:    []float64{0.1},
		Exports: 1,
	}
	net := &Network{
		Layers:     []*CoreLayer{{InDim: 2, Cores: []*CoreSpec{c}}},
		Readout:    NewMergeReadout(1, 1, 1),
		CMax:       1,
		SigmaFloor: 0,
	}
	x := []float64{0.5, 0.25}
	s := net.newScratch()
	out := net.forward(s, x)

	mu := 0.6*0.5 - 0.8*0.25 + 0.1
	v := 0.6*0.5*(1-0.6*0.5) + 0.8*0.25*(1-0.8*0.25)
	want := tensor.SpikeProb(mu, math.Sqrt(v))
	if math.Abs(out[0]-want) > 1e-12 {
		t.Fatalf("forward = %v, manual = %v", out[0], want)
	}
}

func TestForwardZeroVarianceAtDeterministicWeights(t *testing.T) {
	// With |w| = CMax (p=1) and binary inputs the variance must vanish and
	// the activation must be a hard step.
	c := &CoreSpec{
		In:      []int{0, 1},
		W:       tensor.FromSlice(2, 2, []float64{1, -1, -1, 1}),
		Bias:    []float64{-0.5, -0.5},
		Exports: 2,
	}
	net := &Network{
		Layers:     []*CoreLayer{{InDim: 2, Cores: []*CoreSpec{c}}},
		Readout:    NewMergeReadout(2, 2, 1),
		CMax:       1,
		SigmaFloor: 0,
	}
	s := net.newScratch()
	out := net.forward(s, []float64{1, 0})
	// Neuron 0: mu = 1 - 0.5 = 0.5 > 0 -> fires with certainty.
	// Neuron 1: mu = -1 - 0.5 < 0 -> never fires.
	if out[0] != 1 || out[1] != 0 {
		t.Fatalf("deterministic activations = %v, want [1 0]", out)
	}
}

// numericalGrad estimates dLoss/dtheta for the parameter pointed to by get/set.
func numericalGrad(net *Network, x []float64, label int, get func() float64, set func(float64)) float64 {
	const h = 1e-5
	orig := get()
	loss := func() float64 {
		s := net.newScratch()
		out := net.forward(s, x)
		net.Readout.Scores(s.scores, out)
		d := make([]float64, len(out))
		return net.Readout.LossGrad(s.scores, s.probs, label, d)
	}
	set(orig + h)
	lp := loss()
	set(orig - h)
	lm := loss()
	set(orig)
	return (lp - lm) / (2 * h)
}

func analyticGrads(net *Network, x []float64, label int) *netGrads {
	s := net.newScratch()
	g := net.newGrads()
	out := net.forward(s, x)
	net.Readout.Scores(s.scores, out)
	net.Readout.LossGrad(s.scores, s.probs, label, s.dAct[len(net.Layers)])
	net.backward(s, g)
	return g
}

func TestBackwardMatchesNumericalGradient(t *testing.T) {
	net := tinyNet(t, 7)
	x := tinyInput(7, 8)
	label := 1
	g := analyticGrads(net, x, label)
	checked := 0
	for li, l := range net.Layers {
		for ci, c := range l.Cores {
			for j := 0; j < c.Neurons(); j++ {
				row := c.W.Row(j)
				for i := range row {
					num := numericalGrad(net, x, label,
						func() float64 { return row[i] },
						func(v float64) { row[i] = v })
					ana := g.layers[li][ci].W.At(j, i)
					if math.Abs(num-ana) > 1e-4*(1+math.Abs(num)) {
						t.Fatalf("layer %d core %d w[%d][%d]: analytic %v vs numeric %v", li, ci, j, i, ana, num)
					}
					checked++
				}
				num := numericalGrad(net, x, label,
					func() float64 { return c.Bias[j] },
					func(v float64) { c.Bias[j] = v })
				ana := g.layers[li][ci].Bias[j]
				if math.Abs(num-ana) > 1e-4*(1+math.Abs(num)) {
					t.Fatalf("layer %d core %d bias[%d]: analytic %v vs numeric %v", li, ci, j, ana, num)
				}
				checked++
			}
		}
	}
	if checked < 40 {
		t.Fatalf("only %d parameters checked", checked)
	}
}

func TestBackwardSigmaConstMatchesNumericalOfFrozenSigma(t *testing.T) {
	// With SigmaConst the analytic gradient drops the variance path; verify it
	// equals the mean-path-only expression rather than the full numeric one.
	net := tinyNet(t, 8)
	net.SigmaConst = true
	x := tinyInput(8, 8)
	g := analyticGrads(net, x, 0)

	netFull := tinyNet(t, 8)
	xf := tinyInput(8, 8)
	gFull := analyticGrads(netFull, xf, 0)

	// The two gradients must differ somewhere (the variance path matters)...
	diff := 0.0
	for li := range g.layers {
		for ci := range g.layers[li] {
			for i := range g.layers[li][ci].W.Data {
				diff += math.Abs(g.layers[li][ci].W.Data[i] - gFull.layers[li][ci].W.Data[i])
			}
		}
	}
	if diff < 1e-9 {
		t.Fatal("SigmaConst had no effect on gradients")
	}
	// ...but bias gradients at the last layer agree (bias has no variance path).
	last := len(net.Layers) - 1
	for ci := range g.layers[last] {
		for j := range g.layers[last][ci].Bias {
			a, b := g.layers[last][ci].Bias[j], gFull.layers[last][ci].Bias[j]
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("last-layer bias grad changed by SigmaConst: %v vs %v", a, b)
			}
		}
	}
}

func TestMergeReadoutRoundRobin(t *testing.T) {
	r := NewMergeReadout(7, 3, 1)
	wantAssign := []int{0, 1, 2, 0, 1, 2, 0}
	for g, want := range wantAssign {
		if r.Assignment(g) != want {
			t.Fatalf("neuron %d -> class %d, want %d", g, r.Assignment(g), want)
		}
	}
	counts := r.ClassCounts()
	if counts[0] != 3 || counts[1] != 2 || counts[2] != 2 {
		t.Fatalf("counts %v", counts)
	}
}

func TestMergeReadoutScores(t *testing.T) {
	r := NewMergeReadout(4, 2, 2)
	scores := make([]float64, 2)
	r.Scores(scores, []float64{1, 0, 0.5, 0.5})
	// class0: (1+0.5)/2 * 2 = 1.5 ; class1: (0+0.5)/2 * 2 = 0.5
	if math.Abs(scores[0]-1.5) > 1e-12 || math.Abs(scores[1]-0.5) > 1e-12 {
		t.Fatalf("scores %v", scores)
	}
}

func TestMergeReadoutLossGradSigns(t *testing.T) {
	r := NewMergeReadout(4, 2, 3)
	scores := []float64{1, -1}
	probs := make([]float64, 2)
	d := make([]float64, 4)
	loss := r.LossGrad(scores, probs, 0, d)
	if loss <= 0 {
		t.Fatalf("loss %v must be positive", loss)
	}
	// Gradient on true-class neurons (0,2) must be negative (increase them).
	if d[0] >= 0 || d[2] >= 0 {
		t.Fatalf("true-class gradient %v not negative", d)
	}
	if d[1] <= 0 || d[3] <= 0 {
		t.Fatalf("false-class gradient %v not positive", d)
	}
}

func TestMergeReadoutPanicsOnTooFewNeurons(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMergeReadout(3, 10, 1)
}

func TestPenaltyNames(t *testing.T) {
	for _, name := range []string{"none", "l1", "l2", "biased"} {
		p, ok := PenaltyByName(name)
		if !ok || p.Name() != name {
			t.Fatalf("PenaltyByName(%q) = %v, %v", name, p, ok)
		}
	}
	if _, ok := PenaltyByName("bogus"); ok {
		t.Fatal("bogus penalty accepted")
	}
	if p, ok := PenaltyByName(""); !ok || p.Name() != "none" {
		t.Fatal("empty name should map to none")
	}
}

func TestBiasedPenaltyShape(t *testing.T) {
	p := NewBiasedPenalty()
	// Zero at the poles p=0 and p=1, maximal at p=0.5 (Eq. 15's worst case).
	if p.Value(0, 1) != 0 || p.Value(1, 1) != 0 || p.Value(-1, 1) != 0 {
		t.Fatal("penalty must vanish at poles")
	}
	if math.Abs(p.Value(0.5, 1)-0.5) > 1e-12 {
		t.Fatalf("penalty at 0.5 = %v, want 0.5", p.Value(0.5, 1))
	}
	// Symmetric in sign.
	if p.Value(0.3, 1) != p.Value(-0.3, 1) {
		t.Fatal("penalty not symmetric")
	}
}

func TestBiasedPenaltyGradDirection(t *testing.T) {
	p := NewBiasedPenalty()
	// Gradient descent on the penalty must push |w| toward the nearest pole.
	// |w| = 0.7 > 0.5: w should grow toward 1, so grad must be negative for w>0.
	if g := p.Grad(0.7, 1); g >= 0 {
		t.Fatalf("grad(0.7) = %v, want negative", g)
	}
	// |w| = 0.3 < 0.5: w should shrink toward 0, so grad positive for w>0.
	if g := p.Grad(0.3, 1); g <= 0 {
		t.Fatalf("grad(0.3) = %v, want positive", g)
	}
	// Mirror for negative weights.
	if g := p.Grad(-0.7, 1); g <= 0 {
		t.Fatalf("grad(-0.7) = %v, want positive", g)
	}
	if g := p.Grad(-0.3, 1); g >= 0 {
		t.Fatalf("grad(-0.3) = %v, want negative", g)
	}
}

func TestBiasedPenaltyGradMatchesNumeric(t *testing.T) {
	p := BiasedPenalty{A: 0.5, B: 0.5}
	h := 1e-7
	for _, w := range []float64{-0.9, -0.6, -0.2, 0.1, 0.4, 0.8} {
		for _, cmax := range []float64{1, 2} {
			num := (p.Value(w+h, cmax) - p.Value(w-h, cmax)) / (2 * h)
			if math.Abs(num-p.Grad(w, cmax)) > 1e-5 {
				t.Fatalf("w=%v cmax=%v: numeric %v vs analytic %v", w, cmax, num, p.Grad(w, cmax))
			}
		}
	}
}

func TestBiasedPenaltyGeneralAB(t *testing.T) {
	p := BiasedPenalty{A: 0.4, B: 0.3}
	// Poles at p = 0.1 and p = 0.7.
	if v := p.Value(0.1, 1); math.Abs(v) > 1e-12 {
		t.Fatalf("pole 0.1 value %v", v)
	}
	if v := p.Value(0.7, 1); math.Abs(v) > 1e-12 {
		t.Fatalf("pole 0.7 value %v", v)
	}
	if v := p.Value(0.4, 1); math.Abs(v-0.3) > 1e-12 {
		t.Fatalf("centroid value %v, want 0.3", v)
	}
}

func TestL1L2Grads(t *testing.T) {
	l1 := L1Penalty{}
	l2 := L2Penalty{}
	if l1.Grad(0.5, 1) != 1 || l1.Grad(-0.5, 1) != -1 || l1.Grad(0, 1) != 0 {
		t.Fatal("L1 grad wrong")
	}
	if l2.Grad(0.5, 1) != 0.5 {
		t.Fatal("L2 grad wrong")
	}
	if l2.Value(2, 1) != 2 {
		t.Fatal("L2 value wrong")
	}
}
