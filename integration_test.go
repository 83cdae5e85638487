package repro

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/synth/digits"
	"repro/internal/truenorth"
)

// TestEndToEndPipeline exercises the full stack on a miniature corpus:
// generate -> train (biased) -> serialize -> reload -> sample -> evaluate on
// both the fast path and the explicit chip, checking cross-path agreement.
func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := digits.Config{Train: 1200, Test: 400, Seed: 5, Jitter: 1, Noise: 0.06}
	train, test := digits.Generate(cfg)
	if err := train.Validate(); err != nil {
		t.Fatal(err)
	}

	arch := &nn.Arch{
		Name: "integration", InputH: 28, InputW: 28,
		Block: 16, Stride: 12, CoreSize: 256, Classes: 10, Tau: 12,
	}
	model, err := core.TrainModel(core.TrainSpec{
		Arch: arch, Penalty: "biased", Lambda: 0.0005,
		Train: nn.TrainConfig{Epochs: 4, Batch: 32, LR: 0.1, Momentum: 0.9,
			LRDecay: 0.85, Warmup: 1, Seed: 2},
		Seed: 2,
	}, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if model.Meta.FloatAccuracy < 0.7 {
		t.Fatalf("float accuracy %v too low for integration corpus", model.Meta.FloatAccuracy)
	}

	// Serialize, reload, verify identical predictions.
	path := filepath.Join(t.TempDir(), "model.json")
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	reloaded, err := core.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 28*28)
	copy(x, test.X[0])
	a, b := model.Net.Predict(x), reloaded.Net.Predict(x)
	for k := range a {
		if math.Abs(a[k]-b[k]) > 1e-12 {
			t.Fatal("reloaded model predicts differently")
		}
	}

	// Deploy and check the deployment is in a sane band.
	res, err := model.DeployAccuracy(test, deploy.EvalConfig{
		Copies: 2, SPF: 2, Repeats: 2, Seed: 9, Sample: deploy.DefaultSampleConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy < model.Meta.FloatAccuracy-0.25 {
		t.Fatalf("deployed accuracy %v collapsed from float %v", res.Accuracy, model.Meta.FloatAccuracy)
	}
	if res.Cores != 8 {
		t.Fatalf("2 copies of 4 cores = %d", res.Cores)
	}

	// Chip lowering: same sampled copy, binary thresholded image, integer
	// biases forced, exact agreement with the fast path.
	net2 := reloaded.Net
	for _, l := range net2.Layers {
		for _, c := range l.Cores {
			for j := range c.Bias {
				c.Bias[j] = math.Round(c.Bias[j])
			}
		}
	}
	sn := deploy.Sample(net2, rng.NewPCG32(11, 1), deploy.DefaultSampleConfig())
	cn, err := deploy.BuildChip(sn, deploy.MapSigned, 12)
	if err != nil {
		t.Fatal(err)
	}
	if cn.Chip.NumCores() != 4 {
		t.Fatalf("chip cores %d", cn.Chip.NumCores())
	}
	xbin := make([]float64, 28*28)
	for i, v := range test.X[1] {
		if v > 0.5 {
			xbin[i] = 1
		}
	}
	fs := sn.NewFrameScratch()
	fast := make([]int64, 10)
	sn.Frame(fs, xbin, 3, rng.NewPCG32(13, 13), fast)
	chip := cn.Frame(xbin, 3, rng.NewPCG32(14, 14))
	for k := range fast {
		if fast[k] != chip[k] {
			t.Fatalf("class %d: fast %d vs chip %d", k, fast[k], chip[k])
		}
	}

	// Attach the NoC observer and replay the identical frame: class counts
	// must not move by a single spike (observer-only contract through the
	// public deployment API), and the observer must balance its own books —
	// total hops equal the summed per-link crossings.
	placed, err := truenorth.PlaceRowMajor(cn.Chip.NumCores())
	if err != nil {
		t.Fatal(err)
	}
	if err := cn.Chip.SetNoC(placed); err != nil {
		t.Fatal(err)
	}
	observed := cn.Frame(xbin, 3, rng.NewPCG32(14, 14))
	for k := range chip {
		if chip[k] != observed[k] {
			t.Fatalf("class %d: NoC observer changed counts %d -> %d", k, chip[k], observed[k])
		}
	}
	noc := cn.Chip.NoC()
	var linkSum int64
	for _, v := range noc.HLink {
		linkSum += v
	}
	for _, v := range noc.VLink {
		linkSum += v
	}
	if linkSum != noc.Hops {
		t.Fatalf("per-link crossings %d != total hops %d", linkSum, noc.Hops)
	}
}

// TestPlacementIntegration places the deep bench-3 core layout (7x7 -> 3x3
// -> 2x2 feed-forward windows) on the chip grid and confirms the seeded
// annealer beats row-major, annealing never worsens its starting placement,
// and the per-link conservation law holds for every placement.
func TestPlacementIntegration(t *testing.T) {
	var traffic []truenorth.Traffic
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			dst := 49 + r*3 + c
			for dr := 0; dr < 3; dr++ {
				for dc := 0; dc < 3; dc++ {
					traffic = append(traffic, truenorth.Traffic{
						Src: (r*2+dr)*7 + (c*2 + dc), Dst: dst, Weight: 1,
					})
				}
			}
		}
	}
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			dst := 58 + r*2 + c
			for dr := 0; dr < 2; dr++ {
				for dc := 0; dc < 2; dc++ {
					traffic = append(traffic, truenorth.Traffic{
						Src: 49 + (r+dr)*3 + (c + dc), Dst: dst, Weight: 1,
					})
				}
			}
		}
	}
	rowMajor, err := truenorth.PlaceRowMajor(62)
	if err != nil {
		t.Fatal(err)
	}
	rc := rowMajor.WireCost(traffic)

	// Annealing from its Hilbert seed must beat row-major, and annealing a
	// Hilbert seed on a shorter schedule must never worsen that seed. Every
	// placement must satisfy the conservation law: per-link crossings sum to
	// the wire cost.
	annealed, ac, err := truenorth.PlaceAnneal(traffic, 62, 20160605)
	if err != nil {
		t.Fatal(err)
	}
	if ac >= rc {
		t.Fatalf("annealed %v not below row-major %v", ac, rc)
	}
	seeded, err := truenorth.PlaceHilbert(62)
	if err != nil {
		t.Fatal(err)
	}
	hc := seeded.WireCost(traffic)
	polished := seeded.Anneal(traffic, 20160605, 8)
	if polished > hc {
		t.Fatalf("annealing worsened the Hilbert seed: %v -> %v", hc, polished)
	}
	for _, p := range []*truenorth.Placement{rowMajor, seeded, annealed} {
		lp := p.LinkLoads(traffic)
		wc := p.WireCost(traffic)
		if diff := lp.Total() - wc; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("conservation violated: links %v vs wire %v", lp.Total(), wc)
		}
	}
	t.Logf("wire cost: row-major %.0f, Hilbert %.0f, polished %.0f, annealed %.0f",
		rc, hc, polished, ac)
}

// TestVarianceTheoryEndToEnd validates Eq. 14 empirically on a deployed
// neuron: the Monte-Carlo variance of the membrane sum matches the sum of
// per-synapse contribution variances.
func TestVarianceTheoryEndToEnd(t *testing.T) {
	src := rng.NewPCG32(21, 1)
	const inputs = 32
	w := make([]float64, inputs)
	x := make([]float64, inputs)
	for i := range w {
		w[i] = rng.Float64(src)*2 - 1
		x[i] = rng.Float64(src)
	}
	want := 0.0
	for i := range w {
		want += core.ContributionVariance(w[i], x[i], 1)
	}
	const trials = 200000
	var sum, sq float64
	for trial := 0; trial < trials; trial++ {
		v := 0.0
		for i := range w {
			p := math.Abs(w[i])
			if rng.Bernoulli(src, p) && rng.Bernoulli(src, x[i]) {
				if w[i] > 0 {
					v++
				} else {
					v--
				}
			}
		}
		sum += v
		sq += v * v
	}
	mean := sum / trials
	got := sq/trials - mean*mean
	if math.Abs(got-want)/want > 0.03 {
		t.Fatalf("empirical variance %v vs Eq. 14 %v", got, want)
	}
	t.Logf("Eq. 14 variance %v, Monte-Carlo %v", want, got)
}
