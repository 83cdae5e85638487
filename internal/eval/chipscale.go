package eval

import (
	"fmt"
	"time"

	"repro/internal/deploy"
	"repro/internal/rng"
	"repro/internal/truenorth"
)

// ChipScaleEntry is one rung of the chip-scale occupancy ladder: a spatial
// ensemble of sampled copies co-located on one simulated chip
// (deploy.BuildChipEnsemblePlaced), with measured accuracy, activity, energy
// and mesh-NoC traffic under the selected placement versus the naive
// row-major baseline.
type ChipScaleEntry struct {
	// Copies is the ensemble size; Cores the resulting physical occupation.
	Copies int `json:"copies"`
	Cores  int `json:"cores"`
	// Fill is Cores as a fraction of the 4096-core chip.
	Fill float64 `json:"fill"`
	// Accuracy is the ensemble's measured accuracy over the evaluated frames.
	Accuracy float64 `json:"accuracy"`
	// SynEventsPerFrame and SpikesPerFrame are mean per-frame activity counts.
	SynEventsPerFrame float64 `json:"synev_per_frame"`
	SpikesPerFrame    float64 `json:"spikes_per_frame"`
	// EnergyPerFrame is the 26 pJ/event synaptic energy estimate per frame.
	EnergyPerFrame float64 `json:"energy_per_frame"`
	// FrameWall is the mean simulator wall time per frame.
	FrameWall time.Duration `json:"frame_wall_ns"`

	// WireNaive/WirePlaced compare the static traffic-weighted Manhattan
	// wire cost of row-major versus the selected placement; MaxLinkNaive/
	// MaxLinkPlaced compare the hottest mesh link's static weight under
	// dimension-ordered routing.
	WireNaive     float64 `json:"wire_naive"`
	WirePlaced    float64 `json:"wire_placed"`
	MaxLinkNaive  float64 `json:"max_link_naive"`
	MaxLinkPlaced float64 `json:"max_link_placed"`

	// Measured NoC traffic under the selected placement: mean link crossings
	// per frame, mean route length, modeled routing energy and per-spike
	// delivery latency, and the mean per-frame hottest-link crossing count.
	HopsPerFrame      float64 `json:"hops_per_frame"`
	MeanHopsPerSpike  float64 `json:"mean_hops_per_spike"`
	NoCEnergyPerFrame float64 `json:"noc_energy_per_frame"`
	NoCLatencySeconds float64 `json:"noc_latency_s"`
	MaxLinkPerFrame   float64 `json:"max_link_per_frame"`

	// NoCExact records the observer-only contract as measured at this rung:
	// a NoC-off twin chip driven over the same frames produced bit-identical
	// class counts and Stats (docs/DETERMINISM.md, eighth contract).
	NoCExact bool `json:"noc_exact"`
}

// ChipScaleResult is the Table 2(a)-style occupancy ladder extended onto the
// cycle-accurate chip path, up to a full 4096-core chip, with
// placement-aware NoC columns.
type ChipScaleResult struct {
	Bench   Bench  `json:"bench"`
	Penalty string `json:"penalty"`
	// Placer names the placement strategy of the placed columns; Seed is the
	// master seed the sampled ensembles and the annealer derive from, logged
	// so the comparison is reproducible.
	Placer  string           `json:"placer"`
	Seed    uint64           `json:"seed"`
	SPF     int              `json:"spf"`
	Frames  int              `json:"frames"`
	Entries []ChipScaleEntry `json:"entries"`
}

// ChipScale extends the paper's core-occupation ladder (Table 2a) to chip
// scale: bench-3 biased-model ensembles (the deep 49~9~4 window chain — the
// only Table 3 bench with real core-to-core mesh traffic) of growing copy
// counts are lowered onto one shared simulated chip each — the top rung
// occupying 4092 of 4096 cores — and evaluated frame by frame on the
// event-driven simulator with activity, energy and mesh-NoC accounting.
// Each rung also runs a NoC-off twin chip over the same frames to measure
// the observer-only contract, and compares the selected placement
// (Options.Place, default "anneal") against naive row-major on static wire
// cost and max-link load. Under the pre-overhaul dense simulator the top
// rung alone cost ~50 ms per tick of pure core walking; event-driven
// evaluation makes the sweep routine.
func ChipScale(r *Runner) (*ChipScaleResult, error) {
	b, err := BenchByID(3) // 62 cores per copy (49+9+4) under the signed mapping
	if err != nil {
		return nil, err
	}
	placer := deploy.PlacerAnneal
	if r.Opt.Place != "" {
		placer = deploy.Placer(r.Opt.Place)
	}
	m, err := r.Model(b, "biased")
	if err != nil {
		return nil, err
	}
	_, test := r.Data(b)
	copies := []int{4, 16, 66} // 248, 992, 4092 cores
	frames := 24
	if r.Opt.Quick {
		copies = []int{1, 4, 16}
		frames = 8
	}
	if n := test.Len(); frames > n {
		frames = n
	}
	res := &ChipScaleResult{Bench: b, Penalty: "biased", Placer: string(placer), Seed: r.Opt.Seed, SPF: 1, Frames: frames}
	plan := deploy.CompileQuant(m.Net)
	root := rng.NewPCG32(r.Opt.Seed+4096, 11)
	for _, nc := range copies {
		if err := r.ctxErr(); err != nil {
			return nil, err
		}
		nets := make([]*deploy.SampledNet, nc)
		for c := range nets {
			nets[c] = plan.Sample(root.Split(uint64(c)), deploy.DefaultSampleConfig())
		}
		cn, err := deploy.BuildChipEnsemblePlaced(nets, deploy.MapSigned, r.Opt.Seed+uint64(nc), placer)
		if err != nil {
			return nil, fmt.Errorf("eval: chipscale %d copies: %w", nc, err)
		}
		// NoC-off twin, built from the same sampled nets and chip seed: every
		// frame must match the placed chip bit for bit (observer-only
		// contract), measured rather than assumed.
		twin, err := deploy.BuildChipEnsemble(nets, deploy.MapSigned, r.Opt.Seed+uint64(nc))
		if err != nil {
			return nil, fmt.Errorf("eval: chipscale %d copies (twin): %w", nc, err)
		}
		traffic := cn.Traffic()
		naive, err := truenorth.PlaceRowMajor(cn.Chip.NumCores())
		if err != nil {
			return nil, err
		}
		src := rng.NewPCG32(r.Opt.Seed+uint64(nc), 13)
		srcTwin := rng.NewPCG32(r.Opt.Seed+uint64(nc), 13)
		correct := 0
		nocExact := true
		var stats truenorth.Stats
		var hops, routed, maxLink int64
		start := time.Now()
		for f := 0; f < frames; f++ {
			counts := cn.Frame(test.X[f], res.SPF, src)
			if cn.DecideClass(counts) == test.Y[f] {
				correct++
			}
			twinCounts := twin.Frame(test.X[f], res.SPF, srcTwin)
			if cn.Chip.Stats() != twin.Chip.Stats() {
				nocExact = false
			}
			for k := range counts {
				if counts[k] != twinCounts[k] {
					nocExact = false
				}
			}
			s := cn.Chip.Stats() // Frame resets activity, so this is per-frame
			stats.Ticks += s.Ticks
			stats.Spikes += s.Spikes
			stats.SynEvents += s.SynEvents
			noc := cn.Chip.NoC()
			hops += noc.Hops
			routed += noc.Spikes
			maxLink += noc.MaxLinkLoad()
		}
		wall := time.Since(start)
		meanHops := 0.0
		if routed > 0 {
			meanHops = float64(hops) / float64(routed)
		}
		e := ChipScaleEntry{
			Copies:            nc,
			Cores:             cn.Chip.NumCores(),
			Fill:              float64(cn.Chip.NumCores()) / float64(truenorth.ChipCapacity),
			Accuracy:          float64(correct) / float64(frames),
			SynEventsPerFrame: float64(stats.SynEvents) / float64(frames),
			SpikesPerFrame:    float64(stats.Spikes) / float64(frames),
			EnergyPerFrame:    stats.SynapticEnergyJoules() / float64(frames),
			FrameWall:         wall / (2 * time.Duration(frames)), // placed + twin ran each frame
			WireNaive:         naive.WireCost(traffic),
			WirePlaced:        cn.Placed.WireCost(traffic),
			MaxLinkNaive:      naive.LinkLoads(traffic).MaxLoad(),
			MaxLinkPlaced:     cn.Placed.LinkLoads(traffic).MaxLoad(),
			HopsPerFrame:      float64(hops) / float64(frames),
			MeanHopsPerSpike:  meanHops,
			NoCEnergyPerFrame: float64(hops) * truenorth.HopEnergyJoules / float64(frames),
			NoCLatencySeconds: meanHops * truenorth.HopLatencySeconds,
			MaxLinkPerFrame:   float64(maxLink) / float64(frames),
			NoCExact:          nocExact,
		}
		res.Entries = append(res.Entries, e)
		r.logf("chipscale: %d copies -> %d cores (%.0f%% chip), acc %.4f, %.3g J/frame, %v/frame; "+
			"wire %s %.0f vs naive %.0f (%.0f%% lower), max link %.0f vs %.0f, %.1f hops/spike, noc-exact %v",
			e.Copies, e.Cores, e.Fill*100, e.Accuracy, e.EnergyPerFrame, e.FrameWall.Round(time.Microsecond),
			res.Placer, e.WirePlaced, e.WireNaive, 100*(1-e.WirePlaced/e.WireNaive),
			e.MaxLinkPlaced, e.MaxLinkNaive, e.MeanHopsPerSpike, e.NoCExact)
	}
	return res, nil
}

// ctxErr reports a pending cancellation on the runner's options context.
func (r *Runner) ctxErr() error {
	if r.Opt.Ctx == nil {
		return nil
	}
	return r.Opt.Ctx.Err()
}
