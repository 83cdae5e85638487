package truenorth

import (
	"encoding/binary"
	"testing"
)

// FuzzPlacementTraffic decodes arbitrary bytes into a bounded
// placement/traffic spec — core count, traffic edges, swap sequence, anneal
// seed — then places, swaps, anneals and accounts. Whatever the input, the
// pipeline must not panic, the placement must stay a bijection, the annealer
// must not worsen the starting cost, and the per-link conservation law must
// hold. CI runs a 10s smoke beside the other fuzz targets.
func FuzzPlacementTraffic(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 0, 1, 3, 2, 0, 9})
	f.Add([]byte{255, 0, 12, 34, 56, 78, 90, 11, 22, 33, 44, 55, 66, 77, 88, 99})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		n := 2 + int(next())%62 // 2..63 cores
		var p *Placement
		var err error
		if next()%2 == 0 {
			p, err = PlaceRowMajor(n)
		} else {
			p, err = PlaceHilbert(n)
		}
		if err != nil {
			t.Fatal(err)
		}
		var seed uint64
		if len(data) >= 8 {
			seed = binary.LittleEndian.Uint64(data[:8])
			data = data[8:]
		}
		nSwaps := int(next()) % 32
		for k := 0; k < nSwaps; k++ {
			p.swap(int(next())%n, int(next())%n)
		}
		var traffic []Traffic
		for len(data) >= 3 && len(traffic) < 256 {
			traffic = append(traffic, Traffic{
				Src:    int(data[0]) % n,
				Dst:    int(data[1]) % n,
				Weight: float64(data[2]) / 16,
			})
			data = data[3:]
		}
		before := p.WireCost(traffic)
		got := p.Anneal(traffic, seed, 1+int(seed%2))
		if got > before {
			t.Fatalf("anneal worsened cost %f -> %f", before, got)
		}
		// Bijection invariant.
		seen := make(map[GridPos]int, n)
		for i, pos := range p.Slot {
			if pos.Row < 0 || pos.Row >= GridSide || pos.Col < 0 || pos.Col >= GridSide {
				t.Fatalf("core %d off grid at %+v", i, pos)
			}
			if prev, dup := seen[pos]; dup {
				t.Fatalf("cores %d and %d share slot %+v", prev, i, pos)
			}
			seen[pos] = i
			if p.used[pos] != i {
				t.Fatalf("used[%+v] = %d, want %d", pos, p.used[pos], i)
			}
		}
		// Conservation: per-link crossings sum to the weighted wire cost.
		lp := p.LinkLoads(traffic)
		if diff := lp.Total() - got; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("conservation violated: links %f vs wire %f", lp.Total(), got)
		}
	})
}
