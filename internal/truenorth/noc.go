package truenorth

import (
	"fmt"
	"sort"
)

// NoC accounting: an optional observer that charges every delivered spike its
// mesh route under the placement attached via Chip.SetNoC. TrueNorth delivers
// spikes over a 64x64 2-D mesh with dimension-ordered (X-then-Y) routing: a
// packet first traverses horizontal links along the SOURCE row to the
// destination column, then vertical links along the DESTINATION column — the
// same discipline Placement.LinkLoads models statically. The observer is
// strictly read-only with respect to simulation state: it consumes no PRNG
// draws and mutates nothing the simulators read, so enabling it leaves every
// pre-existing observable byte-identical (the eighth determinism contract,
// docs/DETERMINISM.md) — and both Tick and TickDense accumulate identical
// counters.
//
// Link indexing (shared with Placement.LinkLoads — the two walks must stay in
// lockstep):
//   - horizontal link between (row, c) and (row, c+1): row*(GridSide-1) + c
//   - vertical link between (r, col) and (r+1, col):   r*GridSide + col

// Per-hop cost constants. Shape-level only, like Stats.SynapticEnergyJoules'
// 26 pJ/event: our interest is relative cost between placements, not absolute
// silicon power. Values are in the order of magnitude reported for TrueNorth's
// mesh routers (Merolla et al., Science 2014; Akopyan et al., TCAD 2015).
const (
	// HopEnergyJoules is the modeled dynamic energy of moving one spike
	// packet across one mesh link.
	HopEnergyJoules = 2e-12
	// HopLatencySeconds is the modeled per-router forwarding latency used
	// for the delivery-latency estimate.
	HopLatencySeconds = 5e-9
)

// NoCStats accumulates mesh traffic for one chip between activity resets.
// All counters are exact integers so the event-driven and dense tick paths —
// which count in different orders (per-destination popcount batches vs one
// neuron at a time) — agree bit-for-bit.
type NoCStats struct {
	place *Placement

	// Spikes counts routed core-to-core deliveries (off-chip/external and
	// unrouted spikes never enter the mesh and are not charged).
	Spikes int64
	// Hops is the total Manhattan link crossings over all routed spikes.
	Hops int64
	// HLink[row*(GridSide-1)+c] counts crossings of the horizontal link
	// between (row, c) and (row, c+1).
	HLink []int64
	// VLink[r*GridSide+col] counts crossings of the vertical link between
	// (r, col) and (r+1, col).
	VLink []int64
}

// SetNoC attaches a NoC accounting observer routing over p. Every core
// currently on the chip must be placed; the placement is referenced, not
// copied. Attach after the chip is fully built — cores added later are
// unknown to the observer.
func (ch *Chip) SetNoC(p *Placement) error {
	if p == nil {
		return fmt.Errorf("truenorth: SetNoC requires a placement")
	}
	if len(p.Slot) < len(ch.cores) {
		return fmt.Errorf("truenorth: placement covers %d cores, chip has %d", len(p.Slot), len(ch.cores))
	}
	for i := range ch.cores {
		if p.Slot[i].Row < 0 {
			return fmt.Errorf("truenorth: core %d is unplaced", i)
		}
	}
	ch.noc = &NoCStats{
		place: p,
		HLink: make([]int64, GridSide*(GridSide-1)),
		VLink: make([]int64, (GridSide-1)*GridSide),
	}
	return nil
}

// NoC returns the attached observer, or nil when accounting is off.
func (ch *Chip) NoC() *NoCStats { return ch.noc }

// Placement returns the placement the observer routes over.
func (s *NoCStats) Placement() *Placement { return s.place }

// record charges n spikes from logical core src to logical core dst. Only
// additive integer counter updates — order-insensitive, so the two tick
// paths' different accumulation orders cannot diverge.
func (s *NoCStats) record(src, dst, n int) {
	nn := int64(n)
	s.Spikes += nn
	a, b := s.place.Slot[src], s.place.Slot[dst]
	s.Hops += int64(abs(a.Row-b.Row)+abs(a.Col-b.Col)) * nn
	// X first: horizontal links along the source row...
	lo, hi := a.Col, b.Col
	if lo > hi {
		lo, hi = hi, lo
	}
	base := a.Row * (GridSide - 1)
	for c := lo; c < hi; c++ {
		s.HLink[base+c] += nn
	}
	// ...then Y: vertical links along the destination column.
	lo, hi = a.Row, b.Row
	if lo > hi {
		lo, hi = hi, lo
	}
	for r := lo; r < hi; r++ {
		s.VLink[r*GridSide+b.Col] += nn
	}
}

// reset zeroes all counters, keeping the placement attached.
func (s *NoCStats) reset() {
	s.Spikes, s.Hops = 0, 0
	for i := range s.HLink {
		s.HLink[i] = 0
	}
	for i := range s.VLink {
		s.VLink[i] = 0
	}
}

// MaxLinkLoad returns the crossing count of the hottest mesh link — the
// congestion bottleneck under dimension-ordered routing.
func (s *NoCStats) MaxLinkLoad() int64 {
	var best int64
	for _, v := range s.HLink {
		if v > best {
			best = v
		}
	}
	for _, v := range s.VLink {
		if v > best {
			best = v
		}
	}
	return best
}

// MeanHopsPerSpike returns the average route length of a delivered spike
// (0 when nothing was routed).
func (s *NoCStats) MeanHopsPerSpike() float64 {
	if s.Spikes == 0 {
		return 0
	}
	return float64(s.Hops) / float64(s.Spikes)
}

// TrafficMatrix derives the logical core-to-core traffic of the chip's static
// routing tables: one Traffic edge per (src, dst) pair carrying the number of
// src neurons wired to dst. Off-chip (External) and Unrouted targets never
// enter the mesh and are excluded. Edges are emitted in ascending (src, dst)
// order, so the result is deterministic for a given chip.
func (ch *Chip) TrafficMatrix() []Traffic {
	var out []Traffic
	var dsts []int
	for i := range ch.cores {
		counts := make(map[int]float64)
		dsts = dsts[:0]
		for _, t := range ch.targets[i] {
			if t.Core < 0 {
				continue
			}
			if _, ok := counts[t.Core]; !ok {
				dsts = append(dsts, t.Core)
			}
			counts[t.Core]++
		}
		sort.Ints(dsts)
		for _, d := range dsts {
			out = append(out, Traffic{Src: i, Dst: d, Weight: counts[d]})
		}
	}
	return out
}

// LinkProfile is the static analogue of NoCStats' per-link counters: the
// traffic weight crossing every mesh link under dimension-ordered routing,
// with the same link indexing.
type LinkProfile struct {
	HLink, VLink []float64
}

// LinkLoads computes the per-link profile of a traffic set under the
// placement. Conservation law (pinned by placement_test.go): Total() equals
// WireCost(traffic) exactly, because every weighted Manhattan hop crosses
// exactly one link.
func (p *Placement) LinkLoads(traffic []Traffic) LinkProfile {
	lp := LinkProfile{
		HLink: make([]float64, GridSide*(GridSide-1)),
		VLink: make([]float64, (GridSide-1)*GridSide),
	}
	for _, t := range traffic {
		a, b := p.Slot[t.Src], p.Slot[t.Dst]
		// Must mirror NoCStats.record's walk exactly.
		lo, hi := a.Col, b.Col
		if lo > hi {
			lo, hi = hi, lo
		}
		base := a.Row * (GridSide - 1)
		for c := lo; c < hi; c++ {
			lp.HLink[base+c] += t.Weight
		}
		lo, hi = a.Row, b.Row
		if lo > hi {
			lo, hi = hi, lo
		}
		for r := lo; r < hi; r++ {
			lp.VLink[r*GridSide+b.Col] += t.Weight
		}
	}
	return lp
}

// MaxLoad returns the hottest link's weight.
func (lp LinkProfile) MaxLoad() float64 {
	best := 0.0
	for _, v := range lp.HLink {
		if v > best {
			best = v
		}
	}
	for _, v := range lp.VLink {
		if v > best {
			best = v
		}
	}
	return best
}

// Total returns the summed link crossings — by the conservation law, the
// placement's WireCost for the same traffic.
func (lp LinkProfile) Total() float64 {
	total := 0.0
	for _, v := range lp.HLink {
		total += v
	}
	for _, v := range lp.VLink {
		total += v
	}
	return total
}
