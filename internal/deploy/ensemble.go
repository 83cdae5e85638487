package deploy

import (
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/rng"
)

// Ensemble adapts an ensemble of network copies sampled from one QuantPlan to
// the engine's EnsemblePredictor contract — the paper's spatial vote
// (copies x spf averaging) with each copy evaluable on its own, which is what
// the confidence-gated wave scheduler needs to stop sampling once the vote is
// decided. Copies are provided by a lookup function, so callers choose the
// materialization policy: NewSeededEnsemble memoizes lazily (copy k is drawn
// on first use), and a serving layer can back the lookup with its warm
// sample cache instead.
type Ensemble struct {
	plan *QuantPlan
	n    int
	at   func(k int) *SampledNet
}

var _ engine.EnsemblePredictor = (*Ensemble)(nil)

// NewEnsemble returns an n-copy ensemble over plan whose copy k is at(k).
// at must be deterministic in k and safe for concurrent use; copies must be
// sampled from the same plan.
func NewEnsemble(plan *QuantPlan, n int, at func(k int) *SampledNet) *Ensemble {
	if n < 1 {
		n = 1
	}
	return &Ensemble{plan: plan, n: n, at: at}
}

// NewSeededEnsemble returns an n-copy ensemble drawn lazily from plan: copy k
// is plan.Sample(rng.NewPCG32(seed, stream+k), cfg), materialized on first
// use and memoized. Concurrent first uses of one copy may both sample; the
// draws are deterministic and identical, so whichever wins the slot is
// indistinguishable.
func NewSeededEnsemble(plan *QuantPlan, n int, seed, stream uint64, cfg SampleConfig) *Ensemble {
	if n < 1 {
		n = 1
	}
	slots := make([]atomic.Pointer[SampledNet], n)
	return NewEnsemble(plan, n, func(k int) *SampledNet {
		if sn := slots[k].Load(); sn != nil {
			return sn
		}
		sn := plan.Sample(rng.NewPCG32(seed, stream+uint64(k)), cfg)
		slots[k].Store(sn)
		return sn
	})
}

// Classes implements engine.Predictor.
func (e *Ensemble) Classes() int { return e.plan.Classes() }

// Copies implements engine.EnsemblePredictor.
func (e *Ensemble) Copies() int { return e.n }

// ClassWeights implements engine.EnsemblePredictor.
func (e *Ensemble) ClassWeights() []int { return e.plan.ClassWeights() }

// NewScratch implements engine.Predictor. Frame scratch shape depends only on
// the plan, so one scratch serves every copy.
func (e *Ensemble) NewScratch() engine.Scratch { return e.plan.NewFrameScratch() }

// FrameCopy implements engine.EnsemblePredictor: copy k alone classifies x,
// drawing all frame randomness from src.
func (e *Ensemble) FrameCopy(s engine.Scratch, k int, x []float64, spf int, src rng.Source, counts []int64) {
	e.at(k).Frame(s.(*FrameScratch), x, spf, src, counts)
}

// Frame implements engine.Predictor as the exact full-budget vote: every copy
// classifies x and counts sum. Per-copy streams are derived from src exactly
// like the wave scheduler derives them (SplitInto by copy index, ascending),
// so Engine.Classify over an Ensemble is bit-identical to the wave path at
// conf=0 with the same budget — the exact path and the approximate path share
// one randomness contract. src must be a *rng.PCG32 (the engine always
// provides one).
func (e *Ensemble) Frame(s engine.Scratch, x []float64, spf int, src rng.Source, counts []int64) {
	root := src.(*rng.PCG32)
	var stream rng.PCG32
	for k := 0; k < e.n; k++ {
		root.SplitInto(&stream, uint64(k))
		e.FrameCopy(s, k, x, spf, &stream, counts)
	}
}

// Decide implements engine.Predictor.
func (e *Ensemble) Decide(counts []int64) int { return e.plan.DecideClass(counts) }
