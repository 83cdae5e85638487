package deploy

import (
	"fmt"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/truenorth"
)

// FastPredictor adapts the bit-parallel SampledNet path to the engine's
// Predictor contract. The zero Coder selects the paper's stochastic code
// (Eq. 8); any other Coder reproduces the coding ablation's input encodings.
// It implements engine.TickPredictor, so it can serve both plain batched
// classification and the Figure-7 grid evaluation.
type FastPredictor struct {
	Net *SampledNet
	// Coder selects the input spike code (nil = StochasticCode, Eq. 8).
	Coder Coder
}

var _ engine.TickPredictor = (*FastPredictor)(nil)

// Classes implements engine.Predictor.
func (p *FastPredictor) Classes() int { return p.Net.Classes() }

// NewScratch implements engine.Predictor.
func (p *FastPredictor) NewScratch() engine.Scratch { return p.Net.NewFrameScratch() }

// EncodeAndTick implements engine.TickPredictor: one temporal sample — encode
// tick t of an spf-tick frame, then advance the copy one tick. Tick 0
// compiles the frame's input-encoding plan into the scratch; later ticks
// replay it.
func (p *FastPredictor) EncodeAndTick(s engine.Scratch, x []float64, tick, spf int, src rng.Source, counts []int64) {
	fs := s.(*FrameScratch)
	if p.Coder == nil {
		p.Net.EncodeFrameTick(fs, x, tick, spf, src)
	} else {
		p.Net.EncodeInputCoded(fs, x, tick, spf, p.Coder, src)
	}
	p.Net.Tick(fs, src, counts)
}

// Frame implements engine.Predictor.
func (p *FastPredictor) Frame(s engine.Scratch, x []float64, spf int, src rng.Source, counts []int64) {
	for t := 0; t < spf; t++ {
		p.EncodeAndTick(s, x, t, spf, src, counts)
	}
}

// Decide implements engine.Predictor.
func (p *FastPredictor) Decide(counts []int64) int { return p.Net.DecideClass(counts) }

// ChipPredictor adapts the cycle-accurate chip path to the engine's Predictor
// contract. It carries an ensemble of sampled copies (the paper's spatial
// averaging): per frame, every copy runs on its own chip and class spike
// counts sum across copies before the decision.
//
// The simulated chip is stateful, so each worker scratch is a privately built
// set of ChipNets — batched evaluation parallelizes without sharing mutable
// cores. Spike-level results are deterministic given the item streams: when
// an ensemble uses stochastic fractional leak, every copy's chip is reseeded
// from the item stream at the start of each frame (two draws per copy), so
// leak randomness no longer depends on which items a worker happened to
// process — predictions are bit-identical for any worker count and schedule,
// including the engine's work-stealing fan-out. Integer-leak ensembles
// consume no leak randomness and take no reseed draws.
type ChipPredictor struct {
	nets    []*SampledNet
	mapping Mapping
	seed    uint64
	cores   int
	// leaky records whether any copy draws per-tick leak randomness; only
	// then are chips reseeded per item.
	leaky bool
	// first holds the validation build so the first scratch costs nothing
	// extra.
	first atomic.Pointer[[]*ChipNet]
	// faults, when set, is applied to every freshly built chip copy
	// (SetFaults), so each worker scratch carries an identical fault plan.
	faults func(copy int, cn *ChipNet) error

	ticks, spikes, synEvents atomic.Int64
}

var _ engine.Predictor = (*ChipPredictor)(nil)

// NewChipPredictor lowers every sampled copy onto a fresh chip (validating
// capacity and mapping constraints once) and returns the predictor. Copy c is
// built with chip seed seed+c.
func NewChipPredictor(nets []*SampledNet, mapping Mapping, seed uint64) (*ChipPredictor, error) {
	if len(nets) == 0 {
		return nil, fmt.Errorf("deploy: chip predictor needs at least one sampled copy")
	}
	p := &ChipPredictor{nets: nets, mapping: mapping, seed: seed}
	for _, sn := range nets {
		if sn.usesLeakRandomness() {
			p.leaky = true
			break
		}
	}
	built, err := p.build()
	if err != nil {
		return nil, err
	}
	for _, cn := range built {
		p.cores += cn.Chip.NumCores()
	}
	p.first.Store(&built)
	return p, nil
}

func (p *ChipPredictor) build() ([]*ChipNet, error) {
	out := make([]*ChipNet, len(p.nets))
	for c, sn := range p.nets {
		cn, err := BuildChip(sn, p.mapping, p.seed+uint64(c))
		if err != nil {
			return nil, fmt.Errorf("deploy: chip predictor copy %d: %w", c, err)
		}
		if p.faults != nil {
			if err := p.faults(c, cn); err != nil {
				return nil, fmt.Errorf("deploy: chip predictor copy %d faults: %w", c, err)
			}
		}
		out[c] = cn
	}
	return out, nil
}

// SetFaults installs a hook run on every built chip copy — the seam the
// hardware fault models compose through (internal/fault.ChipHook). The hook
// mutates the copy's chip in place (crossbar rewrites, CoreFaults plans) and
// must be deterministic per copy index: each worker scratch is an independent
// build, and all of them must carry bit-identical fault plans. SetFaults is a
// construction-time call — install faults before handing the predictor to an
// engine; it is not safe concurrently with Frame. Passing nil removes the
// hook. The existing validation build is discarded and rebuilt through the
// hook so the very first scratch is faulted too.
func (p *ChipPredictor) SetFaults(hook func(copy int, cn *ChipNet) error) error {
	p.faults = hook
	built, err := p.build()
	if err != nil {
		return err
	}
	p.first.Store(&built)
	return nil
}

// Classes implements engine.Predictor.
func (p *ChipPredictor) Classes() int { return p.nets[0].Classes() }

// Cores returns the total physical core occupation across all copies.
func (p *ChipPredictor) Cores() int { return p.cores }

// NewScratch implements engine.Predictor: a private chip ensemble per worker.
func (p *ChipPredictor) NewScratch() engine.Scratch {
	if first := p.first.Swap(nil); first != nil {
		return *first
	}
	built, err := p.build()
	if err != nil {
		// build succeeded in NewChipPredictor on identical inputs.
		panic(fmt.Sprintf("deploy: chip rebuild failed after validation: %v", err))
	}
	return built
}

// Frame implements engine.Predictor: run the frame on every copy's chip and
// sum class counts. Activity statistics accumulate on the predictor.
func (p *ChipPredictor) Frame(s engine.Scratch, x []float64, spf int, src rng.Source, counts []int64) {
	for _, cn := range s.([]*ChipNet) {
		if p.leaky {
			cn.Chip.Reseed(uint64(src.Uint32())<<32 | uint64(src.Uint32()))
		}
		c := cn.Frame(x, spf, src)
		for k := range counts {
			counts[k] += c[k]
		}
		st := cn.Chip.Stats()
		p.ticks.Add(st.Ticks)
		p.spikes.Add(st.Spikes)
		p.synEvents.Add(st.SynEvents)
	}
}

// Decide implements engine.Predictor.
func (p *ChipPredictor) Decide(counts []int64) int { return p.nets[0].DecideClass(counts) }

// Stats returns chip activity accumulated over every frame served so far.
func (p *ChipPredictor) Stats() truenorth.Stats {
	return truenorth.Stats{
		Ticks:     p.ticks.Load(),
		Spikes:    p.spikes.Load(),
		SynEvents: p.synEvents.Load(),
	}
}
