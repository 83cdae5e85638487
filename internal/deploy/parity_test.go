package deploy

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/rng"
)

// goldenFixture builds the deterministic fixed-weight network and dataset
// whose pre-refactor Surface values are pinned below.
func goldenFixture() (*dataset.Dataset, [][]float64, []float64) {
	src := rng.NewPCG32(1234, 1)
	const inputs, neurons = 24, 12
	w := make([][]float64, neurons)
	bias := make([]float64, neurons)
	for j := range w {
		w[j] = make([]float64, inputs)
		for i := range w[j] {
			w[j][i] = rng.Float64(src)*1.6 - 0.8
		}
		bias[j] = rng.Float64(src)*2 - 1
	}
	const n = 40
	d := &dataset.Dataset{Name: "golden", FeatDim: inputs, NumClasses: 3,
		X: make([][]float64, n), Y: make([]int, n)}
	for i := 0; i < n; i++ {
		x := make([]float64, inputs)
		for k := range x {
			x[k] = rng.Float64(src)
		}
		d.X[i] = x
		d.Y[i] = i % 3
	}
	return d, w, bias
}

// TestSurfaceGoldenParity pins the engine-backed Surface to values captured
// from the pre-refactor goroutine fan-out (same seed, same fixture). Any
// change to the rng stream derivation, the copy/tick evaluation order, or
// the mean/std reduction breaks these exact comparisons.
func TestSurfaceGoldenParity(t *testing.T) {
	d, w, bias := goldenFixture()
	net := singleCoreNet(w, bias, 3)
	cfg := DefaultEvalConfig()
	cfg.Repeats = 3
	cfg.Seed = 42
	cfg.Workers = 4
	surf, err := Surface(net, d, 3, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	goldenMean := [3][3]float64{
		{0.32500000000000001, 0.34166666666666662, 0.33333333333333331},
		{0.375, 0.35000000000000003, 0.34166666666666662},
		{0.33333333333333331, 0.33333333333333331, 0.35000000000000003},
	}
	goldenStd := [3][3]float64{
		{0.040824829046386291, 0.047140452079103161, 0.031180478223116183},
		{0, 0.035355339059327383, 0.051370116691408133},
		{0.011785113019775776, 0.011785113019775776, 0.020412414523193145},
	}
	for c := 0; c < 3; c++ {
		for s := 0; s < 3; s++ {
			if surf.Mean[c][s] != goldenMean[c][s] {
				t.Errorf("mean[%d][%d] = %.17g, golden %.17g", c, s, surf.Mean[c][s], goldenMean[c][s])
			}
			if surf.Std[c][s] != goldenStd[c][s] {
				t.Errorf("std[%d][%d] = %.17g, golden %.17g", c, s, surf.Std[c][s], goldenStd[c][s])
			}
		}
	}
}

// TestSurfaceWorkerCountInvariance: the engine derives per-image streams by
// index before fan-out, so the surface must be bit-identical for any worker
// count.
func TestSurfaceWorkerCountInvariance(t *testing.T) {
	d, w, bias := goldenFixture()
	net := singleCoreNet(w, bias, 3)
	var ref *SurfaceResult
	for _, workers := range []int{1, 3, 8} {
		cfg := DefaultEvalConfig()
		cfg.Repeats = 2
		cfg.Seed = 77
		cfg.Workers = workers
		surf, err := Surface(net, d, 2, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = surf
			continue
		}
		for c := range surf.Mean {
			for s := range surf.Mean[c] {
				if surf.Mean[c][s] != ref.Mean[c][s] || surf.Std[c][s] != ref.Std[c][s] {
					t.Fatalf("workers=%d diverges at (%d,%d)", workers, c, s)
				}
			}
		}
	}
}

// TestCodedAccuracyMatchesSerialReference: the engine-backed CodedAccuracy
// must equal a hand-rolled serial loop over FrameCoded with the same stream
// derivation, for any worker count.
func TestCodedAccuracyMatchesSerialReference(t *testing.T) {
	d, w, bias := goldenFixture()
	net := singleCoreNet(w, bias, 3)
	sn := Sample(net, rng.NewPCG32(2, 2), DefaultSampleConfig())
	for _, coder := range []Coder{StochasticCode{}, RateCode{}, BurstCode{}} {
		// Serial reference: the pre-refactor loop.
		fs := sn.NewFrameScratch()
		root := rng.NewPCG32(5, 3)
		counts := make([]int64, sn.Classes())
		correct := 0
		for i := range d.X {
			for k := range counts {
				counts[k] = 0
			}
			sn.FrameCoded(fs, d.X[i], 4, coder, root.Split(uint64(i)), counts)
			if sn.DecideClass(counts) == d.Y[i] {
				correct++
			}
		}
		want := float64(correct) / float64(len(d.X))
		for _, workers := range []int{1, 4} {
			got, err := CodedAccuracy(sn, d.X, d.Y, 4, coder, 5, engine.Config{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s workers=%d: engine %v vs serial %v", coder.Name(), workers, got, want)
			}
		}
	}
}

// TestFastAndChipPredictorsAgree drives both execution paths through the
// shared engine on integer-leak fixtures, where the only randomness is the
// input code: binary inputs draw nothing, and fractional ones draw their
// Eq. 8 spikes from the item's stream on both paths. Per-item predictions
// must match exactly, on any worker count.
func TestFastAndChipPredictorsAgree(t *testing.T) {
	net := integerBiasNet(8, 16, 2, 33)
	sn := Sample(net, rng.NewPCG32(34, 34), DefaultSampleConfig())
	const n, fractional = 60, 20
	inputs := make([][]float64, n+fractional)
	for i := range inputs {
		if i < n {
			inputs[i] = binaryInput(16, uint64(100+i))
		} else {
			inputs[i] = fractionalInput(16, rng.NewPCG32(uint64(100+i), 6))
		}
	}
	fast := engine.New(&FastPredictor{Net: sn}, engine.Config{Workers: 4})
	fastPreds, err := fast.Classify(inputs, 3, rng.NewPCG32(9, 9))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewChipPredictor([]*SampledNet{sn}, MapSigned, 35)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		chip := engine.New(cp, engine.Config{Workers: workers})
		chipPreds, err := chip.Classify(inputs, 3, rng.NewPCG32(9, 9))
		if err != nil {
			t.Fatal(err)
		}
		for i := range fastPreds {
			if fastPreds[i] != chipPreds[i] {
				t.Fatalf("workers=%d item %d: fast %d vs chip %d", workers, i, fastPreds[i], chipPreds[i])
			}
		}
	}
	if cp.Stats().Ticks == 0 {
		t.Fatal("chip predictor recorded no activity")
	}
	if cp.Cores() != sn.NumCores() {
		t.Fatalf("chip cores %d vs sampled %d", cp.Cores(), sn.NumCores())
	}
}

// TestChipPredictorEnsembleSumsCopies: a two-copy ensemble must decide from
// summed counts, matching a manual sum over per-copy chip frames.
func TestChipPredictorEnsembleSumsCopies(t *testing.T) {
	net := integerBiasNet(6, 12, 2, 40)
	root := rng.NewPCG32(41, 41)
	sns := []*SampledNet{
		Sample(net, root.Split(0), DefaultSampleConfig()),
		Sample(net, root.Split(1), DefaultSampleConfig()),
	}
	cp, err := NewChipPredictor(sns, MapSigned, 42)
	if err != nil {
		t.Fatal(err)
	}
	x := binaryInput(12, 43)
	scratch := cp.NewScratch()
	counts := make([]int64, 2)
	cp.Frame(scratch, x, 2, rng.NewPCG32(44, 44), counts)

	want := make([]int64, 2)
	for c, sn := range sns {
		cn, err := BuildChip(sn, MapSigned, 42+uint64(c))
		if err != nil {
			t.Fatal(err)
		}
		got := cn.Frame(x, 2, rng.NewPCG32(44, 44))
		for k := range want {
			want[k] += got[k]
		}
	}
	for k := range want {
		if counts[k] != want[k] {
			t.Fatalf("class %d: ensemble %d vs manual sum %d", k, counts[k], want[k])
		}
	}
}

// TestClassifyItemsPerItemSeedParity: the engine's per-item seed plumbing
// (engine.RunSeeded / Engine.ClassifyItems) must serve heterogeneous batches
// — every item carrying its own seed and spf — bit-identically to a direct
// FastPredictor call on the item's own stream. The run used to force one
// shared base seed per batch (Run's root.Split(i) derivation), which made
// results depend on batch composition; per-item seeds remove that coupling.
// Predictions are additionally pinned by a golden so the stream derivation
// can never drift silently.
func TestClassifyItemsPerItemSeedParity(t *testing.T) {
	d, w, bias := goldenFixture()
	net := singleCoreNet(w, bias, 3)
	sn := Sample(net, rng.NewPCG32(21, 21), DefaultSampleConfig())
	const n = 30
	items := make([]engine.Item, n)
	for i := range items {
		seed, spf := uint64(1000+i), 1+i%3
		items[i] = engine.Item{
			X:    d.X[i],
			SPF:  spf,
			Seed: func(dst *rng.PCG32) { dst.Seed(seed, 77) },
		}
	}

	// Direct single-item reference: one FastPredictor frame per item on the
	// item's own stream — the serving layer's offline fast path.
	pred := &FastPredictor{Net: sn}
	fs := sn.NewFrameScratch()
	want := make([]int, n)
	for i := range items {
		counts := make([]int64, sn.Classes())
		pred.Frame(fs, items[i].X, items[i].SPF, rng.NewPCG32(uint64(1000+i), 77), counts)
		want[i] = pred.Decide(counts)
	}
	golden := []int{1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1}
	for i := range want {
		if want[i] != golden[i] {
			t.Errorf("item %d: direct %d, golden %d (full: %v)", i, want[i], golden[i], want)
		}
	}

	for _, workers := range []int{1, 3, 8} {
		e := engine.New(&FastPredictor{Net: sn}, engine.Config{Workers: workers})
		// Whole batch, then the same items regrouped into uneven sub-batches:
		// grouping must be invisible to results.
		groupings := [][]int{{n}, {1, 4, 7, 3, 9, 6}}
		for _, sizes := range groupings {
			at := 0
			for _, sz := range sizes {
				out, err := e.ClassifyItems(items[at : at+sz])
				if err != nil {
					t.Fatal(err)
				}
				for j, o := range out {
					if o.Class != want[at+j] {
						t.Fatalf("workers=%d grouping=%v item %d: batched %d vs direct %d",
							workers, sizes, at+j, o.Class, want[at+j])
					}
				}
				at += sz
			}
		}
	}
}

// TestSurfaceCancellation: a pre-canceled context must abort the evaluation
// with the context's error.
func TestSurfaceCancellation(t *testing.T) {
	d, w, bias := goldenFixture()
	net := singleCoreNet(w, bias, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultEvalConfig()
	cfg.Repeats = 2
	cfg.Seed = 1
	cfg.Ctx = ctx
	if _, err := Surface(net, d, 2, 2, cfg); err == nil {
		t.Fatal("canceled surface returned no error")
	}
}
