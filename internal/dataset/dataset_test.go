package dataset

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func tiny() *Dataset {
	return &Dataset{
		Name:       "tiny",
		X:          [][]float64{{0, 1, 0.5, 0.25}, {1, 1, 0, 0}, {0.1, 0.2, 0.3, 0.4}},
		Y:          []int{0, 1, 2},
		FeatDim:    4,
		NumClasses: 3,
		Height:     2,
		Width:      2,
	}
}

func TestValidateAcceptsGood(t *testing.T) {
	if err := tiny().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBad(t *testing.T) {
	cases := map[string]func(*Dataset){
		"length mismatch":  func(d *Dataset) { d.Y = d.Y[:2] },
		"grid too small":   func(d *Dataset) { d.Height = 1 },
		"feature dim":      func(d *Dataset) { d.X[1] = []float64{1} },
		"feature range hi": func(d *Dataset) { d.X[0][0] = 1.5 },
		"feature range lo": func(d *Dataset) { d.X[0][0] = -0.1 },
		"label range":      func(d *Dataset) { d.Y[2] = 3 },
		"negative label":   func(d *Dataset) { d.Y[0] = -1 },
	}
	for name, breakIt := range cases {
		d := tiny()
		breakIt(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestSubset(t *testing.T) {
	d := tiny()
	s := d.Subset(2)
	if s.Len() != 2 {
		t.Fatalf("subset len %d", s.Len())
	}
	if d.Len() != 3 {
		t.Fatal("subset mutated original")
	}
	if d.Subset(0).Len() != 3 || d.Subset(100).Len() != 3 {
		t.Fatal("out-of-range n should return full set")
	}
}

func TestShuffledPreservesPairs(t *testing.T) {
	d := tiny()
	s := d.Shuffled(rng.NewPCG32(1, 1))
	if s.Len() != d.Len() {
		t.Fatal("length changed")
	}
	// Each (x,y) pair must still co-occur.
	for i := range s.X {
		found := false
		for j := range d.X {
			if &s.X[i][0] == &d.X[j][0] && s.Y[i] == d.Y[j] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("pair %d broken by shuffle", i)
		}
	}
}

func TestClassCounts(t *testing.T) {
	c := tiny().ClassCounts()
	if len(c) != 3 || c[0] != 1 || c[1] != 1 || c[2] != 1 {
		t.Fatalf("counts %v", c)
	}
}

func TestGridZeroPads(t *testing.T) {
	d := tiny()
	d.Height, d.Width = 3, 2 // 6 cells, 4 features
	g := d.Grid(0)
	if len(g) != 6 || g[4] != 0 || g[5] != 0 {
		t.Fatalf("grid %v", g)
	}
	if g[0] != 0 || g[1] != 1 || g[2] != 0.5 {
		t.Fatalf("grid prefix %v", g)
	}
}

// Table 3 geometry: every bench's (stride -> cores) pair from the paper.
func TestBlockSpecPaperGeometry(t *testing.T) {
	cases := []struct {
		name          string
		h, w, stride  int
		wantBlocks    int
		wantRows, wcs int
	}{
		{"bench1 mnist stride12", 28, 28, 12, 4, 2, 2},
		{"bench2 mnist stride4", 28, 28, 4, 16, 4, 4},
		{"bench3 mnist stride2", 28, 28, 2, 49, 7, 7},
		{"bench4 rs130 stride3", 19, 19, 3, 4, 2, 2},
		{"bench5 rs130 stride1", 19, 19, 1, 16, 4, 4},
	}
	for _, c := range cases {
		s := BlockSpec{Height: c.h, Width: c.w, Block: 16, Stride: c.stride}
		if got := len(s.Indices()); got != c.wantBlocks {
			t.Errorf("%s: blocks = %d, want %d", c.name, got, c.wantBlocks)
		}
		r, cc := s.GridDims()
		if r != c.wantRows || cc != c.wcs {
			t.Errorf("%s: grid %dx%d, want %dx%d", c.name, r, cc, c.wantRows, c.wcs)
		}
	}
}

func TestBlockIndicesShape(t *testing.T) {
	s := BlockSpec{Height: 28, Width: 28, Block: 16, Stride: 12}
	idx := s.Indices()
	if len(idx) != 4 {
		t.Fatalf("blocks %d", len(idx))
	}
	for b, blk := range idx {
		if len(blk) != 256 {
			t.Fatalf("block %d has %d indices", b, len(blk))
		}
		for _, i := range blk {
			if i < 0 || i >= 28*28 {
				t.Fatalf("block %d index %d out of range", b, i)
			}
		}
	}
	// First block starts at the origin; last block at (12,12).
	if idx[0][0] != 0 {
		t.Fatalf("first index %d", idx[0][0])
	}
	if idx[3][0] != 12*28+12 {
		t.Fatalf("last block origin %d", idx[3][0])
	}
}

func TestBlockIndicesRowMajorWithinBlock(t *testing.T) {
	s := BlockSpec{Height: 8, Width: 8, Block: 4, Stride: 4}
	idx := s.Indices()
	// Block 1 (top-right): origin (0,4); second row starts at 8+4.
	if idx[1][0] != 4 || idx[1][4] != 12 {
		t.Fatalf("block layout wrong: %v", idx[1][:8])
	}
}

// coverage returns, for each cell of s's feature grid, how many blocks cover
// it.
func coverage(s BlockSpec) []int {
	cov := make([]int, s.Height*s.Width)
	for _, blk := range s.Indices() {
		for _, i := range blk {
			cov[i]++
		}
	}
	return cov
}

func TestBlockCoverageFullAtStrideEqualsBlock(t *testing.T) {
	s := BlockSpec{Height: 32, Width: 32, Block: 16, Stride: 16}
	for i, c := range coverage(s) {
		if c != 1 {
			t.Fatalf("cell %d covered %d times, want exactly 1", i, c)
		}
	}
}

func TestBlockCoverageOverlap(t *testing.T) {
	// Property: with any valid spec, coverage of covered cells is >= 1 and the
	// total coverage equals blocks * block^2.
	f := func(seed uint64) bool {
		src := rng.NewPCG32(seed, 1)
		block := 2 + rng.Intn(src, 6)
		stride := 1 + rng.Intn(src, block)
		extra := rng.Intn(src, 10)
		h := block + extra
		s := BlockSpec{Height: h, Width: h, Block: block, Stride: stride}
		total := 0
		for _, c := range coverage(s) {
			total += c
		}
		return total == len(s.Indices())*block*block
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockSpecPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BlockSpec{Height: 8, Width: 8, Block: 0, Stride: 1}.Indices()
}

func TestBatchesCoverAll(t *testing.T) {
	for _, n := range []int{0, 1, 7, 32, 33} {
		batches := Batches(rng.NewPCG32(1, 1), n, 8, true)
		seen := make([]bool, n)
		for _, b := range batches {
			if len(b) == 0 || len(b) > 8 {
				t.Fatalf("n=%d: batch size %d", n, len(b))
			}
			for _, i := range b {
				if seen[i] {
					t.Fatalf("n=%d: index %d twice", n, i)
				}
				seen[i] = true
			}
		}
		for i, s := range seen {
			if !s {
				t.Fatalf("n=%d: index %d missing", n, i)
			}
		}
	}
}

func TestBatchesOrderedWithoutShuffle(t *testing.T) {
	batches := Batches(rng.NewPCG32(1, 1), 5, 2, false)
	want := [][]int{{0, 1}, {2, 3}, {4}}
	for i := range want {
		for j := range want[i] {
			if batches[i][j] != want[i][j] {
				t.Fatalf("batches %v", batches)
			}
		}
	}
}

func TestBatchesPanicsOnZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Batches(rng.NewPCG32(1, 1), 5, 0, false)
}
