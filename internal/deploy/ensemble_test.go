package deploy

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/rng"
)

func ensembleInputs(src *rng.PCG32, n, dim int) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, dim)
		for d := range x {
			x[d] = rng.Float64(src)
		}
		xs[i] = x
	}
	return xs
}

// TestEnsembleExactParity pins the conf=0 contract end to end on real sampled
// networks: the engine wave path at full budget, the Ensemble's own exact
// Frame, and a hand-rolled per-copy loop (independently sampled copies,
// independently split streams) must produce bit-identical class counts.
func TestEnsembleExactParity(t *testing.T) {
	meta := rng.NewPCG32(20260807, 1)
	for trial := 0; trial < 8; trial++ {
		net := randomNet(meta)
		plan := CompileQuant(net)
		cfg := SampleConfig{StochasticLeak: trial%2 == 0}
		const copies, spf = 5, 2
		seed, stream := uint64(100+trial), uint64(40)
		ens := NewSeededEnsemble(plan, copies, seed, stream, cfg)

		xs := ensembleInputs(meta, 6, plan.InputDim())
		items := make([]engine.Item, len(xs))
		for i := range items {
			is := uint64(i)
			items[i] = engine.Item{X: xs[i], SPF: spf, Copies: copies,
				Seed: func(dst *rng.PCG32) { dst.Seed(seed, 500+is) }}
		}
		eng := engine.New(ens, engine.Config{Workers: 3})
		outs, err := eng.ClassifyItems(items)
		if err != nil {
			t.Fatal(err)
		}
		for i := range items {
			// Hand-rolled exact reference: sample copy k from its own
			// derivation, evaluate it on the k-th split of the item stream.
			var root rng.PCG32
			items[i].Seed(&root)
			want := make([]int64, plan.Classes())
			fs := plan.NewFrameScratch()
			var cs rng.PCG32
			for k := 0; k < copies; k++ {
				root.SplitInto(&cs, uint64(k))
				sn := plan.Sample(rng.NewPCG32(seed, stream+uint64(k)), cfg)
				sn.Frame(fs, xs[i], spf, &cs, want)
			}
			for c := range want {
				if outs[i].Counts[c] != want[c] {
					t.Fatalf("trial %d item %d class %d: wave path %d vs hand-rolled %d",
						trial, i, c, outs[i].Counts[c], want[c])
				}
			}
			if outs[i].CopiesUsed != copies {
				t.Fatalf("trial %d item %d: conf=0 used %d of %d copies", trial, i, outs[i].CopiesUsed, copies)
			}
			if outs[i].Class != plan.DecideClass(want) {
				t.Fatalf("trial %d item %d: decision mismatch", trial, i)
			}
			// Ensemble.Frame is the same exact vote behind the plain
			// Predictor interface.
			items[i].Seed(&root)
			frame := make([]int64, plan.Classes())
			ens.Frame(plan.NewFrameScratch(), xs[i], spf, &root, frame)
			for c := range frame {
				if frame[c] != want[c] {
					t.Fatalf("trial %d item %d: Ensemble.Frame diverges from per-copy loop at class %d", trial, i, c)
				}
			}
		}
	}
}

// TestEnsembleDecidedOnlyMatchesExact runs the Decided-only gate (conf=1) on
// real networks: any early exit it takes must reproduce the exact full-budget
// prediction.
func TestEnsembleDecidedOnlyMatchesExact(t *testing.T) {
	meta := rng.NewPCG32(20260807, 2)
	net := randomNet(meta)
	plan := CompileQuant(net)
	const copies, spf = 12, 2
	ens := NewSeededEnsemble(plan, copies, 7, 40, DefaultSampleConfig())
	eng := engine.New(ens, engine.Config{Wave: 1})

	xs := ensembleInputs(meta, 40, plan.InputDim())
	build := func(conf float64) []engine.Item {
		items := make([]engine.Item, len(xs))
		for i := range items {
			is := uint64(i)
			items[i] = engine.Item{X: xs[i], SPF: spf, Copies: copies, Conf: conf,
				Seed: func(dst *rng.PCG32) { dst.Seed(7, 900+is) }}
		}
		return items
	}
	exact, err := eng.ClassifyItems(build(0))
	if err != nil {
		t.Fatal(err)
	}
	gated, err := eng.ClassifyItems(build(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range gated {
		if gated[i].Class != exact[i].Class {
			t.Fatalf("item %d: Decided-only predicted %d, exact vote %d", i, gated[i].Class, exact[i].Class)
		}
	}
}

// TestSeededEnsembleCopyIdentity pins the lazy materialization: copy k of a
// seeded ensemble is bit-identical to sampling plan directly with the
// documented (seed, stream+k) derivation, independent of access order.
func TestSeededEnsembleCopyIdentity(t *testing.T) {
	meta := rng.NewPCG32(20260807, 3)
	net := randomNet(meta)
	plan := CompileQuant(net)
	cfg := DefaultSampleConfig()
	const copies = 4
	ens := NewSeededEnsemble(plan, copies, 99, 40, cfg)
	x := ensembleInputs(meta, 1, plan.InputDim())[0]
	// Touch copies out of order; each must match its direct derivation.
	for _, k := range []int{2, 0, 3, 1, 2} {
		got := make([]int64, plan.Classes())
		want := make([]int64, plan.Classes())
		src1 := rng.NewPCG32(5, 5)
		src2 := rng.NewPCG32(5, 5)
		ens.FrameCopy(plan.NewFrameScratch(), k, x, 2, src1, got)
		plan.Sample(rng.NewPCG32(99, 40+uint64(k)), cfg).Frame(plan.NewFrameScratch(), x, 2, src2, want)
		for c := range got {
			if got[c] != want[c] {
				t.Fatalf("copy %d class %d: lazy %d vs direct %d", k, c, got[c], want[c])
			}
		}
	}
}
