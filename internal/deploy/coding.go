package deploy

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/truenorth"
)

// Coder converts a normalized input intensity into a spike train of spf
// samples. The paper's introduction lists the neural codes TrueNorth
// supports (stochastic, rate, population, time-to-spike, rank); the
// experiments use the stochastic code, and the deterministic rate code is
// the natural ablation: it removes input-spike randomness entirely, isolating
// synaptic sampling noise (Eq. 14 keeps only the w' term).
type Coder interface {
	// Name identifies the code in experiment output.
	Name() string
	// Spike reports whether intensity x emits a spike at tick (0-based) of a
	// spf-tick frame. src is used only by stochastic codes.
	Spike(x float64, tick, spf int, src rng.Source) bool
}

// StochasticCode is the paper's default (Eq. 8): every tick is an independent
// Bernoulli(x) draw.
type StochasticCode struct{}

// Name implements Coder.
func (StochasticCode) Name() string { return "stochastic" }

// Spike implements Coder.
func (StochasticCode) Spike(x float64, _, _ int, src rng.Source) bool {
	return rng.Bernoulli(src, x)
}

// RateCode emits round(x*spf) spikes evenly spread over the frame
// (Bresenham spacing): deterministic, unbiased up to rounding, zero input
// variance. This is the classical TrueNorth rate code.
type RateCode struct{}

// Name implements Coder.
func (RateCode) Name() string { return "rate" }

// Spike implements Coder. A spike fires at tick t when the accumulated ideal
// spike count crosses an integer: floor((t+1)*rate) > floor(t*rate) with
// rate = round(x*spf)/spf the realizable spike rate.
func (RateCode) Spike(x float64, tick, spf int, _ rng.Source) bool {
	if spf <= 0 {
		return false
	}
	n := math.Round(x * float64(spf)) // spikes in this frame
	rate := n / float64(spf)
	const eps = 1e-9
	return math.Floor(float64(tick+1)*rate+eps) > math.Floor(float64(tick)*rate+eps)
}

// BurstCode emits the same round(x*spf) spikes as RateCode but packed at the
// start of the frame — the worst-case temporal distribution, exposing how
// spike clustering interacts with copy averaging.
type BurstCode struct{}

// Name implements Coder.
func (BurstCode) Name() string { return "burst" }

// Spike implements Coder.
func (BurstCode) Spike(x float64, tick, spf int, _ rng.Source) bool {
	n := int(math.Round(x * float64(spf)))
	return tick < n
}

// CoderByName maps identifiers to coders.
func CoderByName(name string) (Coder, error) {
	switch name {
	case "stochastic", "":
		return StochasticCode{}, nil
	case "rate":
		return RateCode{}, nil
	case "burst":
		return BurstCode{}, nil
	}
	return nil, fmt.Errorf("deploy: unknown coder %q", name)
}

// EncodeInputCoded stages tick t of an spf-tick frame using the given coder.
// Like EncodeFrameTick, it panics on an input wider than the network.
func (sn *SampledNet) EncodeInputCoded(fs *FrameScratch, x []float64, tick, spf int, coder Coder, src rng.Source) {
	checkInputDim(len(x), sn.layers[0].plan.inDim)
	fs.input.Zero()
	for i, v := range x {
		if coder.Spike(v, tick, spf, src) {
			fs.input.Set(i)
		}
	}
}

// FrameCoded classifies one input with spf temporal samples under an
// arbitrary neural code, accumulating class spike counts.
func (sn *SampledNet) FrameCoded(fs *FrameScratch, x []float64, spf int, coder Coder, src rng.Source, classCounts []int64) {
	for t := 0; t < spf; t++ {
		sn.EncodeInputCoded(fs, x, t, spf, coder, src)
		sn.Tick(fs, src, classCounts)
	}
}

// CodedAccuracy evaluates classification accuracy of a single sampled copy
// under the given coder — the building block of the coding ablation. The
// batch runs on the shared inference engine; image i draws its spikes from a
// stream split by index, so the result is identical for any worker count.
func CodedAccuracy(sn *SampledNet, inputs [][]float64, labels []int, spf int, coder Coder, seed uint64, cfg engine.Config) (float64, error) {
	eng := engine.New(&FastPredictor{Net: sn, Coder: coder}, cfg)
	return eng.Accuracy(inputs, labels, spf, rng.NewPCG32(seed, 3))
}

// SpikeTrain renders the full spf-tick spike pattern a coder produces for
// intensity x (diagnostics and tests).
func SpikeTrain(coder Coder, x float64, spf int, src rng.Source) truenorth.BitVec {
	train := truenorth.NewBitVec(spf)
	for t := 0; t < spf; t++ {
		if coder.Spike(x, t, spf, src) {
			train.Set(t)
		}
	}
	return train
}
