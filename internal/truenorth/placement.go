package truenorth

import "fmt"

// GridSide is the side length of the physical core grid (64x64 = 4096).
const GridSide = 64

// Placement assigns logical cores to physical (row, col) slots on the chip's
// 2-D mesh. TrueNorth routes spikes over a dimension-ordered mesh network, so
// total Manhattan wire length between communicating cores is the first-order
// proxy for routing energy and congestion — the metric corelet placement
// flows optimize.
type Placement struct {
	// Slot[i] is the grid position of logical core i.
	Slot []GridPos
	used map[GridPos]int
}

// GridPos is a physical core coordinate.
type GridPos struct{ Row, Col int }

// NewPlacement returns an empty placement.
func NewPlacement() *Placement {
	return &Placement{used: make(map[GridPos]int)}
}

// Assign places logical core i at pos. Assigning two cores to one slot or a
// position off the grid is an error.
func (p *Placement) Assign(core int, pos GridPos) error {
	if pos.Row < 0 || pos.Row >= GridSide || pos.Col < 0 || pos.Col >= GridSide {
		return fmt.Errorf("truenorth: position %+v outside the %dx%d grid", pos, GridSide, GridSide)
	}
	if prev, ok := p.used[pos]; ok {
		return fmt.Errorf("truenorth: slot %+v already holds core %d", pos, prev)
	}
	for core >= len(p.Slot) {
		p.Slot = append(p.Slot, GridPos{-1, -1})
	}
	if p.Slot[core].Row >= 0 {
		return fmt.Errorf("truenorth: core %d already placed at %+v", core, p.Slot[core])
	}
	p.Slot[core] = pos
	p.used[pos] = core
	return nil
}

// Manhattan returns the mesh hop distance between two placed cores.
func (p *Placement) Manhattan(a, b int) int {
	pa, pb := p.Slot[a], p.Slot[b]
	return abs(pa.Row-pb.Row) + abs(pa.Col-pb.Col)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Traffic is one logical core-to-core connection with a spike-rate weight.
type Traffic struct {
	Src, Dst int
	// Weight is the expected spikes per tick on this link.
	Weight float64
}

// WireCost returns the total weighted Manhattan distance of the traffic set
// under the placement — the objective corelet placers minimize.
func (p *Placement) WireCost(traffic []Traffic) float64 {
	total := 0.0
	for _, t := range traffic {
		total += t.Weight * float64(p.Manhattan(t.Src, t.Dst))
	}
	return total
}

// PlaceRowMajor fills the grid left-to-right, top-to-bottom — the naive
// baseline placement.
func PlaceRowMajor(numCores int) (*Placement, error) {
	if numCores > GridSide*GridSide {
		return nil, fmt.Errorf("truenorth: %d cores exceed the %d-core chip", numCores, GridSide*GridSide)
	}
	p := NewPlacement()
	for i := 0; i < numCores; i++ {
		if err := p.Assign(i, GridPos{Row: i / GridSide, Col: i % GridSide}); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// swap exchanges the slots of logical cores a and b. The placement stays a
// bijection by construction (pinned by placement_test.go's property tests).
func (p *Placement) swap(a, b int) {
	p.Slot[a], p.Slot[b] = p.Slot[b], p.Slot[a]
	p.used[p.Slot[a]] = a
	p.used[p.Slot[b]] = b
}
