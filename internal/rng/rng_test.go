package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPCG32Deterministic(t *testing.T) {
	a := NewPCG32(42, 7)
	b := NewPCG32(42, 7)
	for i := 0; i < 1000; i++ {
		if a.Uint32() != b.Uint32() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestPCG32SeedSensitivity(t *testing.T) {
	a := NewPCG32(42, 7)
	b := NewPCG32(43, 7)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/1000 equal draws", same)
	}
}

func TestPCG32StreamIndependence(t *testing.T) {
	a := NewPCG32(42, 1)
	b := NewPCG32(42, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different streams produced %d/1000 equal draws", same)
	}
}

func TestPCG32Uniformity(t *testing.T) {
	// Chi-squared over 16 buckets; threshold is ~5 sigma for 15 dof.
	src := NewPCG32(1, 1)
	const n = 1 << 16
	var buckets [16]int
	for i := 0; i < n; i++ {
		buckets[src.Uint32()>>28]++
	}
	expect := float64(n) / 16
	chi2 := 0.0
	for _, c := range buckets {
		d := float64(c) - expect
		chi2 += d * d / expect
	}
	if chi2 > 60 {
		t.Fatalf("chi-squared %.1f too high; buckets %v", chi2, buckets)
	}
}

func TestSplitProducesIndependentStream(t *testing.T) {
	parent := NewPCG32(9, 9)
	child := parent.Split(1)
	other := parent.Split(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if child.Uint32() == other.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams correlated: %d/1000 equal", same)
	}
}

func TestSplitMix64Bijectivity(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 10000; i++ {
		v := SplitMix64(i)
		if seen[v] {
			t.Fatalf("collision at input %d", i)
		}
		seen[v] = true
	}
}

func TestLFSR16Period(t *testing.T) {
	l := NewLFSR16(123)
	start := l.state
	for i := 1; i <= 65535; i++ {
		l.Step()
		if l.state == start {
			if i != 65535 {
				t.Fatalf("LFSR period %d, want 65535 (not maximal-length)", i)
			}
			return
		}
	}
	t.Fatal("LFSR did not return to initial state within 65535 steps")
}

func TestLFSR16NeverZero(t *testing.T) {
	l := NewLFSR16(0) // zero seed must be remapped
	if l.state == 0 {
		t.Fatal("zero state not remapped")
	}
	for i := 0; i < 70000; i++ {
		l.Step()
		if l.state == 0 {
			t.Fatalf("LFSR reached all-zero lockup state at step %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	src := NewPCG32(5, 5)
	for i := 0; i < 10000; i++ {
		f := Float64(src)
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	src := NewPCG32(6, 6)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += Float64(src)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean %v too far from 0.5", mean)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	src := NewPCG32(7, 7)
	for i := 0; i < 1000; i++ {
		if Bernoulli(src, 0) {
			t.Fatal("Bernoulli(0) fired")
		}
		if !Bernoulli(src, 1) {
			t.Fatal("Bernoulli(1) did not fire")
		}
		if Bernoulli(src, -0.5) {
			t.Fatal("negative probability fired")
		}
		if !Bernoulli(src, 1.5) {
			t.Fatal("probability >1 did not fire")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	// Property: empirical frequency tracks p within 4 sigma for any p.
	f := func(raw uint16) bool {
		p := float64(raw) / 65535
		src := NewPCG32(uint64(raw), 3)
		const n = 20000
		hits := 0
		for i := 0; i < n; i++ {
			if Bernoulli(src, p) {
				hits++
			}
		}
		sigma := math.Sqrt(p * (1 - p) / n)
		return math.Abs(float64(hits)/n-p) <= 4*sigma+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnBounds(t *testing.T) {
	src := NewPCG32(8, 8)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 1000; i++ {
			v := Intn(src, n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	Intn(NewPCG32(1, 1), 0)
}

func TestIntnUniform(t *testing.T) {
	src := NewPCG32(11, 11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[Intn(src, n)]++
	}
	expect := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Fatalf("value %d count %d deviates from %f", v, c, expect)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	src := NewPCG32(12, 12)
	const n = 100000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := Normal(src)
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		n := 1 + int(seed%64)
		p := Perm(NewPCG32(seed, 1), n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	src := NewPCG32(13, 13)
	idx := []int{5, 5, 1, 2, 9, 9, 9}
	counts := map[int]int{}
	for _, v := range idx {
		counts[v]++
	}
	Shuffle(src, idx)
	for _, v := range idx {
		counts[v]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("element %d count changed by %d", k, c)
		}
	}
}

func TestShuffleActuallyShuffles(t *testing.T) {
	src := NewPCG32(14, 14)
	idx := make([]int, 100)
	for i := range idx {
		idx[i] = i
	}
	Shuffle(src, idx)
	inPlace := 0
	for i, v := range idx {
		if i == v {
			inPlace++
		}
	}
	if inPlace > 10 {
		t.Fatalf("%d/100 fixed points; expected ~1", inPlace)
	}
}

func TestLFSRUint32SatisfiesSource(t *testing.T) {
	var s Source = NewLFSR16(99)
	seen := map[uint32]bool{}
	for i := 0; i < 100; i++ {
		seen[s.Uint32()] = true
	}
	if len(seen) < 90 {
		t.Fatalf("LFSR words heavily repeating: %d unique of 100", len(seen))
	}
}

func BenchmarkPCG32(b *testing.B) {
	src := NewPCG32(1, 1)
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink = src.Uint32()
	}
	_ = sink
}

func BenchmarkLFSR16Word(b *testing.B) {
	l := NewLFSR16(1)
	var sink uint16
	for i := 0; i < b.N; i++ {
		sink = l.Uint16()
	}
	_ = sink
}

func BenchmarkBernoulli(b *testing.B) {
	src := NewPCG32(1, 1)
	hits := 0
	for i := 0; i < b.N; i++ {
		if Bernoulli(src, 0.37) {
			hits++
		}
	}
	_ = hits
}

func TestSeedMatchesNewPCG32(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		fresh := NewPCG32(seed, seed*3+1)
		var inPlace PCG32
		inPlace.Seed(seed, seed*3+1)
		for i := 0; i < 20; i++ {
			if fresh.Uint32() != inPlace.Uint32() {
				t.Fatalf("seed %d: in-place Seed diverges from NewPCG32 at draw %d", seed, i)
			}
		}
	}
}

func TestSplitIntoMatchesSplit(t *testing.T) {
	a := NewPCG32(42, 9)
	b := NewPCG32(42, 9)
	for label := uint64(0); label < 40; label++ {
		split := a.Split(label)
		var into PCG32
		b.SplitInto(&into, label)
		if *split != into {
			t.Fatalf("label %d: SplitInto state diverges from Split", label)
		}
		for i := 0; i < 8; i++ {
			if split.Uint32() != into.Uint32() {
				t.Fatalf("label %d: SplitInto stream diverges at draw %d", label, i)
			}
		}
	}
	// The receivers must have advanced identically too.
	if *a != *b {
		t.Fatal("SplitInto advanced the receiver differently from Split")
	}
}

// TestPCG32PeekAdvanceMatchSequential: Peek(k) must return the word k+1
// sequential Uint32 calls end on, without moving the generator, and
// Advance(n) must leave the generator exactly where n calls would — on both
// sides of the O(1) jump table's 256-step edge.
func TestPCG32PeekAdvanceMatchSequential(t *testing.T) {
	steps := []uint64{0, 1, 63, 255, 256, 257, 1000}
	for _, stream := range []uint64{0, 1, 7, 1 << 40} {
		base := NewPCG32(99+stream, stream)
		base.Uint32()
		words := make([]uint32, 1002)
		seq := *base
		for i := range words {
			words[i] = seq.Uint32()
		}
		for _, k := range steps {
			p := *base
			if got := p.Peek(k); got != words[k] {
				t.Fatalf("stream %d: Peek(%d) = %#x, sequential %#x", stream, k, got, words[k])
			}
			if p != *base {
				t.Fatalf("stream %d: Peek(%d) moved the generator", stream, k)
			}
			want := *base
			for i := uint64(0); i < k; i++ {
				want.Uint32()
			}
			p.Advance(k)
			if p != want {
				t.Fatalf("stream %d: Advance(%d) state %+v, sequential %+v", stream, k, p, want)
			}
			if got := p.Uint32(); got != words[k] {
				t.Fatalf("stream %d: first word after Advance(%d) = %#x, sequential %#x", stream, k, got, words[k])
			}
		}
	}
}
