package truenorth

import (
	"math"

	"repro/internal/rng"
)

// NeuronConfig holds the user-configurable subset of the TrueNorth LIF neuron
// model that the paper exercises (section 2: the full model has 22 parameters,
// 14 user-configurable; the paper's networks use the history-free
// McCulloch-Pitts special case, Eqs. 3-4).
type NeuronConfig struct {
	// Threshold is the firing threshold: the neuron spikes when its membrane
	// value reaches or exceeds it. The paper's formulation uses 0 with the
	// comparison y' >= 0.
	Threshold int32
	// Leak is the per-tick additive leak. The paper's Eq. (3) subtracts a
	// constant lambda; we store the signed addend (so a trained bias b maps
	// to Leak = +b). Non-integer leaks are realized stochastically: the
	// integer part is applied every tick and the fractional part is applied
	// as a Bernoulli +1, which keeps the hardware arithmetic integer while
	// remaining unbiased (docs/ARCHITECTURE.md "The simulated substrate", stochastic fractional leak).
	Leak float64
	// Persistent selects true integrate-and-fire behaviour: the membrane
	// potential carries across ticks and is set to ResetTo on firing. When
	// false the neuron is McCulloch-Pitts: the potential is rebuilt from
	// scratch every tick (Eq. 4 resets y' unconditionally).
	Persistent bool
	// ResetTo is the post-spike potential in Persistent mode.
	ResetTo int32
}

// LeakDraw realizes the leak for one tick as an integer.
func (c *NeuronConfig) LeakDraw(src rng.Source) int32 {
	fl := math.Floor(c.Leak)
	l := int32(fl)
	if frac := c.Leak - fl; frac > 0 && rng.Bernoulli(src, frac) {
		l++
	}
	return l
}
