package truenorth

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestPlacementAssignValidation(t *testing.T) {
	p := NewPlacement()
	if err := p.Assign(0, GridPos{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := p.Assign(1, GridPos{0, 0}); err == nil {
		t.Fatal("double occupancy accepted")
	}
	if err := p.Assign(0, GridPos{1, 1}); err == nil {
		t.Fatal("re-placing a core accepted")
	}
	if err := p.Assign(2, GridPos{64, 0}); err == nil {
		t.Fatal("off-grid row accepted")
	}
	if err := p.Assign(2, GridPos{0, -1}); err == nil {
		t.Fatal("off-grid col accepted")
	}
}

func TestManhattan(t *testing.T) {
	p := NewPlacement()
	_ = p.Assign(0, GridPos{0, 0})
	_ = p.Assign(1, GridPos{3, 4})
	if d := p.Manhattan(0, 1); d != 7 {
		t.Fatalf("distance %d, want 7", d)
	}
	if d := p.Manhattan(1, 1); d != 0 {
		t.Fatalf("self distance %d", d)
	}
}

func TestPlaceRowMajor(t *testing.T) {
	p, err := PlaceRowMajor(130)
	if err != nil {
		t.Fatal(err)
	}
	if p.Slot[0] != (GridPos{0, 0}) || p.Slot[63] != (GridPos{0, 63}) || p.Slot[64] != (GridPos{1, 0}) {
		t.Fatalf("row-major layout wrong: %+v", p.Slot[:3])
	}
	if _, err := PlaceRowMajor(GridSide*GridSide + 1); err == nil {
		t.Fatal("overflow accepted")
	}
}

func TestWireCost(t *testing.T) {
	p := NewPlacement()
	_ = p.Assign(0, GridPos{0, 0})
	_ = p.Assign(1, GridPos{0, 5})
	_ = p.Assign(2, GridPos{2, 0})
	traffic := []Traffic{{Src: 0, Dst: 1, Weight: 2}, {Src: 0, Dst: 2, Weight: 0.5}}
	if c := p.WireCost(traffic); c != 2*5+0.5*2 {
		t.Fatalf("wire cost %v", c)
	}
}

// randomTraffic draws a bounded random traffic set over n cores.
func randomTraffic(src *rng.PCG32, n, edges int) []Traffic {
	tr := make([]Traffic, 0, edges)
	for e := 0; e < edges; e++ {
		tr = append(tr, Traffic{
			Src:    rng.Intn(src, n),
			Dst:    rng.Intn(src, n),
			Weight: 0.1 + 4*rng.Float64(src),
		})
	}
	return tr
}

// checkBijection asserts the placement invariant: every core sits on a
// distinct in-grid slot and the used map is the exact inverse of Slot.
func checkBijection(t *testing.T, p *Placement) {
	t.Helper()
	seen := make(map[GridPos]int, len(p.Slot))
	for i, pos := range p.Slot {
		if pos.Row < 0 || pos.Row >= GridSide || pos.Col < 0 || pos.Col >= GridSide {
			t.Fatalf("core %d off grid at %+v", i, pos)
		}
		if prev, dup := seen[pos]; dup {
			t.Fatalf("cores %d and %d share slot %+v", prev, i, pos)
		}
		seen[pos] = i
		if got, ok := p.used[pos]; !ok || got != i {
			t.Fatalf("used[%+v] = %d,%v, want %d", pos, got, ok, i)
		}
	}
	for pos, i := range p.used {
		if i >= len(p.Slot) || p.Slot[i] != pos {
			t.Fatalf("stale used entry %+v -> %d", pos, i)
		}
	}
}

// TestHilbertRoundTrip: the Hilbert index <-> (row, col) maps are mutually
// inverse bijections over the full 64x64 grid, and consecutive indices are
// always mesh neighbors (the locality property PlaceHilbert relies on).
func TestHilbertRoundTrip(t *testing.T) {
	seen := make(map[GridPos]bool, GridSide*GridSide)
	prow, pcol := -1, -1
	for d := 0; d < GridSide*GridSide; d++ {
		row, col := HilbertD2XY(GridSide, d)
		if row < 0 || row >= GridSide || col < 0 || col >= GridSide {
			t.Fatalf("d=%d maps off grid to (%d,%d)", d, row, col)
		}
		if seen[GridPos{row, col}] {
			t.Fatalf("d=%d revisits (%d,%d)", d, row, col)
		}
		seen[GridPos{row, col}] = true
		if back := HilbertXY2D(GridSide, row, col); back != d {
			t.Fatalf("(%d,%d) maps back to %d, want %d", row, col, back, d)
		}
		if d > 0 {
			if abs(row-prow)+abs(col-pcol) != 1 {
				t.Fatalf("d=%d jumps from (%d,%d) to (%d,%d)", d, prow, pcol, row, col)
			}
		}
		prow, pcol = row, col
	}
	for row := 0; row < GridSide; row++ {
		for col := 0; col < GridSide; col++ {
			d := HilbertXY2D(GridSide, row, col)
			if r, c := HilbertD2XY(GridSide, d); r != row || c != col {
				t.Fatalf("(%d,%d) -> %d -> (%d,%d)", row, col, d, r, c)
			}
		}
	}
}

// TestPlacementBijectionUnderOps: arbitrary assign/swap/anneal sequences
// keep the placement a bijection.
func TestPlacementBijectionUnderOps(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.NewPCG32(seed, 31)
		n := 2 + rng.Intn(src, 200)
		var p *Placement
		switch rng.Intn(src, 3) {
		case 0:
			p, _ = PlaceRowMajor(n)
		case 1:
			p, _ = PlaceHilbert(n)
		default:
			// Assign in random order to random free slots.
			p = NewPlacement()
			perm := rng.Perm(src, n)
			for _, i := range perm {
				for {
					pos := GridPos{rng.Intn(src, GridSide), rng.Intn(src, GridSide)}
					if err := p.Assign(i, pos); err == nil {
						break
					}
				}
			}
		}
		for k := 0; k < 50; k++ {
			p.swap(rng.Intn(src, n), rng.Intn(src, n))
		}
		p.Anneal(randomTraffic(src, n, 3*n), seed, 1)
		checkBijection(t, p)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAnnealNeverWorsens: from any starting placement, Anneal's returned
// cost never exceeds the starting cost (best-snapshot restore), and the
// returned cost is the placement's actual cost.
func TestAnnealNeverWorsens(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.NewPCG32(seed, 33)
		n := 2 + rng.Intn(src, 120)
		p, err := PlaceRowMajor(n)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 30; k++ {
			p.swap(rng.Intn(src, n), rng.Intn(src, n))
		}
		traffic := randomTraffic(src, n, 4*n)
		before := p.WireCost(traffic)
		got := p.Anneal(traffic, seed, 2)
		if got > before {
			t.Fatalf("anneal worsened cost: %f -> %f (n=%d seed=%d)", before, got, n, seed)
		}
		if actual := p.WireCost(traffic); actual != got {
			t.Fatalf("returned cost %f != actual %f", got, actual)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAnnealDeterministic is the seeded-annealer golden: the same (traffic,
// seed, schedule) always yields the identical Placement.Slot — run twice
// here, and under the race detector by CI's race job.
func TestAnnealDeterministic(t *testing.T) {
	src := rng.NewPCG32(99, 35)
	traffic := randomTraffic(src, 300, 1400)
	run := func() (*Placement, float64) {
		p, cost, err := PlaceAnneal(traffic, 300, 20160605)
		if err != nil {
			t.Fatal(err)
		}
		return p, cost
	}
	p1, c1 := run()
	p2, c2 := run()
	if c1 != c2 {
		t.Fatalf("costs differ: %f vs %f", c1, c2)
	}
	for i := range p1.Slot {
		if p1.Slot[i] != p2.Slot[i] {
			t.Fatalf("slot %d differs: %+v vs %+v", i, p1.Slot[i], p2.Slot[i])
		}
	}
	// A different seed must explore a different trajectory (sanity that the
	// seed is actually consumed).
	p3, _, err := PlaceAnneal(traffic, 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range p1.Slot {
		if p1.Slot[i] != p3.Slot[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed 7 reproduced seed 20160605's placement exactly")
	}
}

// TestLinkLoadConservation: for every traffic set, the summed per-link
// crossings equal the total weighted Manhattan distance — each weighted hop
// crosses exactly one link under X-then-Y routing.
func TestLinkLoadConservation(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.NewPCG32(seed, 37)
		n := 2 + rng.Intn(src, 300)
		p, err := PlaceHilbert(n)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 40; k++ {
			p.swap(rng.Intn(src, n), rng.Intn(src, n))
		}
		traffic := randomTraffic(src, n, 5*n)
		lp := p.LinkLoads(traffic)
		wire := p.WireCost(traffic)
		if diff := lp.Total() - wire; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("conservation violated: links %f vs wire %f", lp.Total(), wire)
		}
		if lp.MaxLoad() > lp.Total() {
			t.Fatalf("max link %f exceeds total %f", lp.MaxLoad(), lp.Total())
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPlaceAnnealBeatsRowMajorOnEnsembleTraffic pins the acceptance-level
// win at unit scale: on ensemble-shaped traffic (many contiguous copies,
// each a feed-forward chain), the Hilbert-seeded annealer lands at least 25%
// below row-major wire cost with a no-hotter max link.
func TestPlaceAnnealBeatsRowMajorOnEnsembleTraffic(t *testing.T) {
	// 16 copies x 62 cores: layer chains 49 -> 9 -> 4 like bench 3.
	var traffic []Traffic
	nCores := 0
	for copyIdx := 0; copyIdx < 16; copyIdx++ {
		base := copyIdx * 62
		// Logical order matches deploy.lower: last layer first.
		l2, l1, l0 := base, base+4, base+13
		for i := 0; i < 49; i++ {
			traffic = append(traffic, Traffic{Src: l0 + i, Dst: l1 + i%9, Weight: 4})
		}
		for i := 0; i < 9; i++ {
			traffic = append(traffic, Traffic{Src: l1 + i, Dst: l2 + i%4, Weight: 2})
		}
		nCores = base + 62
	}
	naive, err := PlaceRowMajor(nCores)
	if err != nil {
		t.Fatal(err)
	}
	placed, cost, err := PlaceAnneal(traffic, nCores, 20160605)
	if err != nil {
		t.Fatal(err)
	}
	naiveCost := naive.WireCost(traffic)
	if cost > 0.75*naiveCost {
		t.Fatalf("anneal cost %f not 25%% below row-major %f", cost, naiveCost)
	}
	if ml, nl := placed.LinkLoads(traffic).MaxLoad(), naive.LinkLoads(traffic).MaxLoad(); ml > nl {
		t.Fatalf("anneal max link %f hotter than row-major %f", ml, nl)
	}
	checkBijection(t, placed)
}
