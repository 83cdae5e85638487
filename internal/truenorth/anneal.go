package truenorth

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Seeded placement optimization: a Hilbert-curve clustering pass that turns
// logical core order into compact 2-D blobs, and a simulated-annealing
// refiner over pairwise slot swaps. Both are fully deterministic: Hilbert is
// closed-form, and the annealer draws every random number from a dedicated
// PCG32 stream with a schedule fixed by (traffic, numCores, seed, sweeps) —
// the same inputs always yield the same Placement.Slot (pinned by
// placement_test.go's determinism golden).

// annealStream is the dedicated PCG32 stream for the annealing placer, so
// placer draws can never collide with simulation streams (cores use the
// chip-seed splits, fault drops use faultDropStream).
const annealStream = 0xA22EA1

// annealSweeps is PlaceAnneal's default schedule length in sweeps (swap
// attempts per core). 32 sweeps converge well on ensemble-shaped traffic up
// to the full 4096-core grid while keeping the 4096-core placement under a
// second.
const annealSweeps = 32

// HilbertD2XY maps a distance d along the Hilbert curve of an side x side
// grid (side a power of two) to its (row, col) coordinate. Consecutive d are
// always mesh neighbors, so mapping a contiguous logical index range onto a
// curve segment yields a spatially compact cluster.
func HilbertD2XY(side, d int) (row, col int) {
	x, y, t := 0, 0, d
	for s := 1; s < side; s <<= 1 {
		rx := 1 & (t / 2)
		ry := 1 & (t ^ rx)
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
		x += s * rx
		y += s * ry
		t /= 4
	}
	return y, x
}

// HilbertXY2D is the inverse of HilbertD2XY.
func HilbertXY2D(side, row, col int) int {
	x, y, d := col, row, 0
	for s := side / 2; s > 0; s /= 2 {
		rx, ry := 0, 0
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += s * s * ((3 * rx) ^ ry)
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}

// PlaceHilbert places logical core i at the i-th position along the Hilbert
// curve of the grid. Because ensemble lowering emits each network copy as a
// contiguous logical index range, every copy lands in its own compact 2-D
// blob with consecutive layers adjacent inside it — the clustering seed the
// annealer refines.
func PlaceHilbert(numCores int) (*Placement, error) {
	if numCores > GridSide*GridSide {
		return nil, fmt.Errorf("truenorth: %d cores exceed the %d-core chip", numCores, GridSide*GridSide)
	}
	p := NewPlacement()
	for i := 0; i < numCores; i++ {
		row, col := HilbertD2XY(GridSide, i)
		if err := p.Assign(i, GridPos{Row: row, Col: col}); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Anneal refines the placement by simulated annealing over pairwise swaps:
// sweeps*n proposed swaps under a geometric cooling schedule, Metropolis
// acceptance, every draw from the dedicated annealStream of seed. Swap deltas
// are exact (edges between the swapped pair keep their length, so the
// double-counted pair terms cancel), a best-so-far snapshot is kept, and the
// placement is restored to the cheapest visited state — the returned cost is
// recomputed from scratch and never exceeds the starting cost.
func (p *Placement) Anneal(traffic []Traffic, seed uint64, sweeps int) float64 {
	n := len(p.Slot)
	startCost := p.WireCost(traffic)
	if n < 2 || sweeps <= 0 || len(traffic) == 0 || startCost <= 0 {
		return startCost
	}
	adj := make(map[int][]Traffic)
	for _, t := range traffic {
		adj[t.Src] = append(adj[t.Src], t)
		adj[t.Dst] = append(adj[t.Dst], t)
	}
	cost := func(core int) float64 {
		total := 0.0
		for _, t := range adj[core] {
			total += t.Weight * float64(p.Manhattan(t.Src, t.Dst))
		}
		return total
	}
	start := append([]GridPos(nil), p.Slot...)
	best := append([]GridPos(nil), p.Slot...)
	cur, bestCost := startCost, startCost
	// Deterministic schedule: start at the mean per-edge cost (the scale of a
	// typical swap delta), cool geometrically to 1/1000th of it.
	t0 := startCost / float64(len(traffic))
	moves := sweeps * n
	cool := 1.0
	if moves > 1 {
		cool = math.Pow(1e-3, 1/float64(moves-1))
	}
	temp := t0
	src := rng.NewPCG32(seed, annealStream)
	for m := 0; m < moves; m++ {
		a := rng.Intn(src, n)
		b := rng.Intn(src, n)
		if a == b {
			temp *= cool
			continue
		}
		before := cost(a) + cost(b)
		p.swap(a, b)
		delta := cost(a) + cost(b) - before
		if delta <= 0 || rng.Float64(src) < math.Exp(-delta/temp) {
			cur += delta
			if cur < bestCost {
				bestCost = cur
				copy(best, p.Slot)
			}
		} else {
			p.swap(a, b)
		}
		temp *= cool
	}
	p.restore(best)
	// Exact recompute kills accumulated float drift; the start snapshot
	// guards the never-worsens contract against pathological rounding.
	final := p.WireCost(traffic)
	if final > startCost {
		p.restore(start)
		return startCost
	}
	return final
}

// restore overwrites the placement with a snapshot that occupies the same
// slot set (any permutation of the current assignment).
func (p *Placement) restore(slots []GridPos) {
	copy(p.Slot, slots)
	for i, pos := range p.Slot {
		p.used[pos] = i
	}
}

// PlaceAnneal is the full seeded placer: Hilbert clustering seed refined by
// Anneal with the default schedule. Returns the placement and its final wire
// cost on the given traffic.
func PlaceAnneal(traffic []Traffic, numCores int, seed uint64) (*Placement, float64, error) {
	p, err := PlaceHilbert(numCores)
	if err != nil {
		return nil, 0, err
	}
	return p, p.Anneal(traffic, seed, annealSweeps), nil
}
