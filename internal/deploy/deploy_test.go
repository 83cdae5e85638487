package deploy

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// singleCoreNet builds a 1-layer network with explicit weights/biases:
// weights is neurons x inputs.
func singleCoreNet(weights [][]float64, bias []float64, classes int) *nn.Network {
	neurons := len(weights)
	inputs := len(weights[0])
	flat := make([]float64, 0, neurons*inputs)
	for _, row := range weights {
		flat = append(flat, row...)
	}
	in := make([]int, inputs)
	for i := range in {
		in[i] = i
	}
	core := &nn.CoreSpec{
		In: in, W: tensor.FromSlice(neurons, inputs, flat),
		Bias: bias, Exports: neurons,
	}
	return &nn.Network{
		Layers:     []*nn.CoreLayer{{InDim: inputs, Cores: []*nn.CoreSpec{core}}},
		Readout:    nn.NewMergeReadout(neurons, classes, 1),
		CMax:       1,
		SigmaFloor: 1e-3,
	}
}

func TestQuantizeProperties(t *testing.T) {
	f := func(raw int16) bool {
		w := float64(raw) / 32767 // in [-1, 1]
		p, positive := Quantize(w, 1)
		if p < 0 || p > 1 {
			return false
		}
		if math.Abs(p-math.Abs(w)) > 1e-12 {
			return false
		}
		return positive == (w > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Values beyond CMax clamp to p=1.
	if p, _ := Quantize(3, 1); p != 1 {
		t.Fatalf("p = %v for |w| > cmax", p)
	}
	// Scaling by cmax.
	if p, pos := Quantize(-1, 2); p != 0.5 || pos {
		t.Fatalf("Quantize(-1, 2) = %v, %v", p, pos)
	}
}

func TestSampleRespectsDeterministicPoles(t *testing.T) {
	// p=1 synapses always present, p=0 never, regardless of stream.
	net := singleCoreNet([][]float64{{1, -1, 0, 1}, {0, 0, -1, 0}}, []float64{0, 0}, 2)
	for seed := uint64(0); seed < 20; seed++ {
		sn := Sample(net, rng.NewPCG32(seed, 1), DefaultSampleConfig())
		c := sn.layers[0].cores[0]
		if !c.plusRow(0).Get(0) || !c.minusRow(0).Get(1) || !c.plusRow(0).Get(3) {
			t.Fatal("p=1 synapse missing")
		}
		if c.plusRow(0).Get(2) || c.minusRow(0).Get(2) {
			t.Fatal("p=0 synapse present")
		}
		if !c.minusRow(1).Get(2) {
			t.Fatal("neuron 1 synapse missing")
		}
	}
}

func TestSamplePlusMinusDisjoint(t *testing.T) {
	src := rng.NewPCG32(3, 3)
	w := make([][]float64, 4)
	for j := range w {
		w[j] = make([]float64, 16)
		for i := range w[j] {
			w[j][i] = rng.Float64(src)*2 - 1
		}
	}
	net := singleCoreNet(w, make([]float64, 4), 2)
	sn := Sample(net, rng.NewPCG32(9, 9), DefaultSampleConfig())
	c := sn.layers[0].cores[0]
	for j := 0; j < 4; j++ {
		for i := 0; i < 16; i++ {
			if c.plusRow(j).Get(i) && c.minusRow(j).Get(i) {
				t.Fatalf("synapse (%d,%d) both signs", i, j)
			}
		}
	}
}

func TestSampleConnectionFrequencyMatchesProbability(t *testing.T) {
	// Property (Eq. 6): over many copies, the connection rate of synapse i
	// approaches p_i = |w_i|.
	w := [][]float64{{0.25, -0.7, 0.95, 0.1}}
	net := singleCoreNet(w, []float64{0}, 1)
	const copies = 5000
	hits := make([]int, 4)
	root := rng.NewPCG32(5, 5)
	for c := 0; c < copies; c++ {
		sn := Sample(net, root.Split(uint64(c)), DefaultSampleConfig())
		sc := sn.layers[0].cores[0]
		for i := 0; i < 4; i++ {
			if sc.plusRow(0).Get(i) || sc.minusRow(0).Get(i) {
				hits[i]++
			}
		}
	}
	for i, want := range []float64{0.25, 0.7, 0.95, 0.1} {
		got := float64(hits[i]) / copies
		sigma := math.Sqrt(want * (1 - want) / copies)
		if math.Abs(got-want) > 5*sigma+1e-9 {
			t.Fatalf("synapse %d rate %v, want %v", i, got, want)
		}
	}
}

func TestSampledExpectationMatchesEq7(t *testing.T) {
	// E{c * Bernoulli(p)} must equal the trained weight (Eq. 7).
	w := [][]float64{{0.6, -0.4}}
	net := singleCoreNet(w, []float64{0}, 1)
	const copies = 20000
	sum := make([]float64, 2)
	root := rng.NewPCG32(6, 6)
	for c := 0; c < copies; c++ {
		sn := Sample(net, root.Split(uint64(c)), DefaultSampleConfig())
		sc := sn.layers[0].cores[0]
		for i := 0; i < 2; i++ {
			if sc.plusRow(0).Get(i) {
				sum[i]++
			} else if sc.minusRow(0).Get(i) {
				sum[i]--
			}
		}
	}
	for i, want := range []float64{0.6, -0.4} {
		got := sum[i] / copies
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("E{w'_%d} = %v, want %v", i, got, want)
		}
	}
}

func TestFrameDeterministicNetworkExactlyMatchesFloat(t *testing.T) {
	// All-pole weights (p in {0,1}), integer biases, binary inputs: the
	// deployed network is fully deterministic and must match the float model.
	w := [][]float64{
		{1, -1, 0, 1},
		{-1, 1, 1, 0},
		{0, 0, 1, 1},
	}
	bias := []float64{0, -1, -2}
	net := singleCoreNet(w, bias, 3)
	sn := Sample(net, rng.NewPCG32(7, 7), DefaultSampleConfig())
	x := []float64{1, 0, 1, 1}
	fs := sn.NewFrameScratch()
	counts := make([]int64, 3)
	sn.Frame(fs, x, 1, rng.NewPCG32(8, 8), counts)
	// Neuron 0: 1+0+1 = 2 >= 0 fires. Neuron 1: -1+1+0-1 = -1 no.
	// Neuron 2: 1+1-2 = 0 fires.
	if counts[0] != 1 || counts[1] != 0 || counts[2] != 1 {
		t.Fatalf("counts %v, want [1 0 1]", counts)
	}
	// Float model agrees: activations are the hard step values.
	scores := net.Predict(x)
	if scores[0] <= scores[1] || scores[2] <= scores[1] {
		t.Fatalf("float scores %v inconsistent", scores)
	}
}

func TestSpikeProbabilityMatchesCLTModel(t *testing.T) {
	// The scientific core of Tea learning: the Monte-Carlo firing rate of a
	// deployed neuron (averaged over synapse samples and spike samples) must
	// match the erf-CDF activation (Eq. 11) the float model trains with.
	src := rng.NewPCG32(10, 10)
	inputs := 64
	w := make([][]float64, 1)
	w[0] = make([]float64, inputs)
	for i := range w[0] {
		w[0][i] = rng.Float64(src)*1.6 - 0.8
	}
	bias := []float64{-2.5}
	net := singleCoreNet(w, bias, 1)
	x := make([]float64, inputs)
	for i := range x {
		x[i] = rng.Float64(src)
	}
	want := func() float64 {
		// Forward of the float model: probability neuron fires.
		mu := bias[0]
		variance := 0.0
		for i, wi := range w[0] {
			mu += wi * x[i]
			aw := math.Abs(wi)
			variance += aw * x[i] * (1 - aw*x[i])
		}
		return tensor.SpikeProb(mu, math.Sqrt(variance))
	}()

	// The deployed sum V is integer-valued and fires at V >= 0, so the exact
	// normal approximation carries a continuity correction: P(V >= 0) =
	// P(V >= -0.5) ~ Phi((mu+0.5)/sigma). The paper's Eq. (11) omits the
	// correction (training absorbs the offset); we check the Monte-Carlo rate
	// against the corrected value tightly and the paper's form loosely.
	corrected := func() float64 {
		mu := bias[0]
		variance := 0.25 // stochastic-leak Bernoulli variance at frac 0.5
		for i, wi := range w[0] {
			mu += wi * x[i]
			aw := math.Abs(wi)
			variance += aw * x[i] * (1 - aw*x[i])
		}
		return tensor.SpikeProb(mu+0.5, math.Sqrt(variance))
	}()

	const trials = 40000
	fires := 0
	root := rng.NewPCG32(11, 11)
	fsSrc := rng.NewPCG32(12, 12)
	counts := make([]int64, 1)
	for c := 0; c < trials/100; c++ {
		sn := Sample(net, root.Split(uint64(c)), DefaultSampleConfig())
		fs := sn.NewFrameScratch()
		for rep := 0; rep < 100; rep++ {
			counts[0] = 0
			sn.Frame(fs, x, 1, fsSrc, counts)
			fires += int(counts[0])
		}
	}
	got := float64(fires) / trials
	sigma := math.Sqrt(corrected * (1 - corrected) / trials)
	if math.Abs(got-corrected) > 0.015+4*sigma {
		t.Fatalf("deployed firing rate %v vs continuity-corrected CLT %v", got, corrected)
	}
	if math.Abs(got-want) > 0.08 {
		t.Fatalf("deployed firing rate %v too far from Eq. 11 value %v", got, want)
	}
	t.Logf("deployed %v, corrected model %v, Eq.11 model %v", got, corrected, want)
}

func TestRoundedLeakIsBiased(t *testing.T) {
	// The ablation: a bias of -0.5001 under stochastic leak fires the neuron
	// on ~half the ticks (draws -1 or 0), while rounding to -1 silences it
	// entirely. Weights are p=0 everywhere so only leak decides.
	w := [][]float64{{0, 0}}
	net := singleCoreNet(w, []float64{-0.5001}, 1)
	x := []float64{0, 0}
	run := func(stoch bool) float64 {
		sn := Sample(net, rng.NewPCG32(1, 1), SampleConfig{StochasticLeak: stoch})
		fs := sn.NewFrameScratch()
		counts := make([]int64, 1)
		src := rng.NewPCG32(2, 2)
		const ticks = 20000
		for i := 0; i < ticks; i++ {
			sn.Frame(fs, x, 1, src, counts)
		}
		return float64(counts[0]) / ticks
	}
	stoch := run(true)
	rounded := run(false)
	if math.Abs(stoch-0.5) > 0.02 {
		t.Fatalf("stochastic leak rate %v, want ~0.5", stoch)
	}
	if rounded != 0 {
		t.Fatalf("rounded leak rate %v, want 0 (round(-0.5001) = -1 < 0)", rounded)
	}
}

// blockDataset builds a near-binary-pixel two-class task on an 8x8 grid:
// class prototypes are random binary patterns and samples flip each pixel
// with 8% probability. Near-binary pixels keep spike-coding noise small, so
// synaptic sampling noise dominates deployment loss — the regime in which
// the paper's MNIST experiments live and where biasing pays off.
func blockDataset(n int, seed uint64) *dataset.Dataset {
	proto := rng.NewPCG32(999, 1) // fixed prototypes shared by all splits
	prototypes := make([][]bool, 2)
	prototypes[0] = make([]bool, 64)
	for i := range prototypes[0] {
		prototypes[0][i] = rng.Bernoulli(proto, 0.5)
	}
	// Class 1 differs in exactly 10 pixels: a narrow margin, so synapse
	// sampling noise on the shared pixels genuinely costs accuracy.
	prototypes[1] = append([]bool(nil), prototypes[0]...)
	for _, i := range rng.Perm(proto, 64)[:10] {
		prototypes[1][i] = !prototypes[1][i]
	}
	src := rng.NewPCG32(seed, 3)
	d := &dataset.Dataset{
		Name: "binpatterns", FeatDim: 64, NumClasses: 2, Height: 8, Width: 8,
		X: make([][]float64, n), Y: make([]int, n),
	}
	for i := 0; i < n; i++ {
		y := i % 2
		x := make([]float64, 64)
		for j := range x {
			bit := prototypes[y][j]
			if rng.Bernoulli(src, 0.08) {
				bit = !bit
			}
			if bit {
				x[j] = 0.95
			} else {
				x[j] = 0.05
			}
		}
		d.X[i] = x
		d.Y[i] = y
	}
	return d
}

func trainedBlockNet(t *testing.T, penalty nn.Penalty, lambda float64) *nn.Network {
	t.Helper()
	arch := &nn.Arch{
		Name: "deploy-test", InputH: 8, InputW: 8, Block: 4, Stride: 4,
		CoreSize: 16, Classes: 2, Tau: 8, InitScale: 0.3,
	}
	net, err := arch.Build(rng.NewPCG32(5, 5), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := nn.TrainConfig{Epochs: 12, Batch: 16, LR: 0.15, Momentum: 0.9, LRDecay: 0.9,
		Lambda: lambda, Penalty: penalty, Warmup: 4, Seed: 42, Workers: 4}
	if _, err := nn.Train(net, blockDataset(400, 1), cfg); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestSurfaceShapeAndMonotonicity(t *testing.T) {
	net := trainedBlockNet(t, nn.NonePenalty{}, 0)
	test := blockDataset(300, 2)
	cfg := DefaultEvalConfig()
	cfg.Repeats = 5
	cfg.Seed = 3
	surf, err := Surface(net, test, 4, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(surf.Mean) != 4 || len(surf.Mean[0]) != 3 {
		t.Fatalf("surface dims %dx%d", len(surf.Mean), len(surf.Mean[0]))
	}
	for c := 0; c < 4; c++ {
		for s := 0; s < 3; s++ {
			if surf.Mean[c][s] < 0 || surf.Mean[c][s] > 1 {
				t.Fatalf("accuracy %v out of range", surf.Mean[c][s])
			}
		}
	}
	// More copies and more spf should help on average (allow small noise).
	if surf.Mean[3][2]+0.03 < surf.Mean[0][0] {
		t.Fatalf("duplication hurt accuracy: 1x1=%v 4x3=%v", surf.Mean[0][0], surf.Mean[3][2])
	}
}

func TestSurfaceDeterministicGivenSeed(t *testing.T) {
	net := trainedBlockNet(t, nn.NonePenalty{}, 0)
	test := blockDataset(100, 2)
	cfg := DefaultEvalConfig()
	cfg.Repeats = 2
	cfg.Seed = 9
	a, err := Surface(net, test, 2, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Surface(net, test, 2, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := range a.Mean {
		for s := range a.Mean[c] {
			if a.Mean[c][s] != b.Mean[c][s] {
				t.Fatalf("surface not reproducible at (%d,%d)", c, s)
			}
		}
	}
}

func TestEvaluateMatchesSurfaceCell(t *testing.T) {
	net := trainedBlockNet(t, nn.NonePenalty{}, 0)
	test := blockDataset(100, 2)
	cfg := DefaultEvalConfig()
	cfg.Repeats = 2
	cfg.Seed = 4
	cfg.Copies = 2
	cfg.SPF = 2
	res, err := Evaluate(net, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cores != 2*net.NumCores() {
		t.Fatalf("cores %d, want %d", res.Cores, 2*net.NumCores())
	}
	if res.Accuracy < 0.5 {
		t.Fatalf("accuracy %v suspiciously low", res.Accuracy)
	}
}

// TestSurfaceInputWidth: inputs narrower than the network are zero-padded
// (the surface equals the one on explicitly padded inputs), and inputs wider
// than the network fail Surface and Evaluate with both widths in the error
// instead of silently dropping features.
func TestSurfaceInputWidth(t *testing.T) {
	d, w, bias := goldenFixture() // 24-input network and data
	net := singleCoreNet(w, bias, 3)
	resize := func(d *dataset.Dataset, width int) *dataset.Dataset {
		r := &dataset.Dataset{Name: d.Name, FeatDim: width, NumClasses: d.NumClasses, Y: d.Y, X: make([][]float64, d.Len())}
		for i, x := range d.X {
			r.X[i] = make([]float64, width)
			copy(r.X[i], x)
		}
		return r
	}
	cfg := DefaultEvalConfig()
	cfg.Repeats = 2
	for _, tc := range []struct {
		name  string
		width int
		err   string
	}{
		{"narrower", 16, ""},
		{"equal", 24, ""},
		{"wider", 40, "has 40 features, network takes 24"},
	} {
		in := resize(d, tc.width)
		got, err := Surface(net, in, 2, 2, cfg)
		_, evalErr := Evaluate(net, in, cfg)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: Surface error %v, want one containing %q", tc.name, err, tc.err)
			}
			if evalErr == nil || !strings.Contains(evalErr.Error(), tc.err) {
				t.Errorf("%s: Evaluate error %v, want one containing %q", tc.name, evalErr, tc.err)
			}
			continue
		}
		if err != nil || evalErr != nil {
			t.Fatalf("%s: Surface error %v, Evaluate error %v", tc.name, err, evalErr)
		}
		want, err := Surface(net, resize(in, 24), 2, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: surface %v differs from zero-padded inputs' %v", tc.name, got.Mean, want.Mean)
		}
	}
}

func TestBiasedModelBeatsTeaAtOneCopy(t *testing.T) {
	// The headline claim, in miniature: deployed single-copy single-spf
	// accuracy of the biased model matches or exceeds the unpenalized (Tea)
	// model, with both float models near parity.
	tea := trainedBlockNet(t, nn.NonePenalty{}, 0)
	biased := trainedBlockNet(t, nn.NewBiasedPenalty(), 0.002)
	test := blockDataset(400, 7)
	teaFloat := nn.Evaluate(tea, test, 4)
	biasedFloat := nn.Evaluate(biased, test, 4)
	if biasedFloat < teaFloat-0.08 {
		t.Fatalf("biased float accuracy collapsed: %v vs %v", biasedFloat, teaFloat)
	}
	cfg := DefaultEvalConfig()
	cfg.Repeats = 6
	cfg.Seed = 13
	teaRes, err := Evaluate(tea, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	biasedRes, err := Evaluate(biased, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("float tea %v biased %v; deployed tea %v±%v biased %v±%v",
		teaFloat, biasedFloat, teaRes.Accuracy, teaRes.StdDev, biasedRes.Accuracy, biasedRes.StdDev)
	if biasedRes.Accuracy < teaRes.Accuracy-0.02 {
		t.Fatalf("biased %v worse than tea %v at 1 copy / 1 spf", biasedRes.Accuracy, teaRes.Accuracy)
	}
}

func TestDeviationMapBiasedModelIsZero(t *testing.T) {
	// Pole weights deploy exactly: deviation must be identically zero.
	w := [][]float64{{1, -1, 0}, {0, 1, 1}}
	net := singleCoreNet(w, []float64{0, 0}, 2)
	m, err := CoreDeviation(net, 0, 0, rng.NewPCG32(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.ZeroFrac != 1 || s.OverHalfFrac != 0 || s.Mean != 0 {
		t.Fatalf("pole-weight deviation stats %+v", s)
	}
}

func TestDeviationMapRandomModelHasMass(t *testing.T) {
	src := rng.NewPCG32(2, 2)
	w := make([][]float64, 8)
	for j := range w {
		w[j] = make([]float64, 32)
		for i := range w[j] {
			w[j][i] = rng.Float64(src)*2 - 1
		}
	}
	net := singleCoreNet(w, make([]float64, 8), 2)
	m, err := CoreDeviation(net, 0, 0, rng.NewPCG32(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.ZeroFrac > 0.2 {
		t.Fatalf("random weights should rarely deploy exactly: %+v", s)
	}
	if s.OverHalfFrac < 0.05 {
		t.Fatalf("expected substantial >50%% deviations: %+v", s)
	}
	if s.Mean <= 0 {
		t.Fatal("mean deviation must be positive")
	}
}

func TestDeviationMapOutOfRange(t *testing.T) {
	net := singleCoreNet([][]float64{{1}}, []float64{0}, 1)
	if _, err := CoreDeviation(net, 5, 0, rng.NewPCG32(1, 1)); err == nil {
		t.Fatal("bad layer accepted")
	}
	if _, err := CoreDeviation(net, 0, 5, rng.NewPCG32(1, 1)); err == nil {
		t.Fatal("bad core accepted")
	}
}

func TestDeviationWritePGM(t *testing.T) {
	net := singleCoreNet([][]float64{{1, 0.5}, {-0.5, 0}}, []float64{0, 0}, 2)
	m, err := CoreDeviation(net, 0, 0, rng.NewPCG32(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("P5\n2 2\n255\n")) {
		t.Fatalf("bad PGM header: %q", buf.Bytes()[:12])
	}
	if buf.Len() != len("P5\n2 2\n255\n")+4 {
		t.Fatalf("PGM length %d", buf.Len())
	}
}
