package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func randomMatrix(src *rng.PCG32, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64(src)*2 - 1
	}
	return m
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			if m.At(r, c) != 0 {
				t.Fatalf("element (%d,%d) not zero", r, c)
			}
		}
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1, 2)
}

func TestFromSliceRoundTrip(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, data)
	if m.At(0, 0) != 1 || m.At(0, 2) != 3 || m.At(1, 0) != 4 || m.At(1, 2) != 6 {
		t.Fatalf("row-major layout broken: %+v", m)
	}
	m.Set(1, 1, 42)
	if data[4] != 42 {
		t.Fatal("FromSlice must alias the input")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 3, []float64{1})
}

func TestCloneIndependence(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliased original")
	}
	if !m.Equal(FromSlice(2, 2, []float64{1, 2, 3, 4}), 0) {
		t.Fatal("original mutated")
	}
}

func TestFillAndZero(t *testing.T) {
	m := New(2, 3)
	m.Fill(7)
	if Sum(m.Data) != 42 {
		t.Fatalf("fill sum %v", Sum(m.Data))
	}
	m.Zero()
	if Sum(m.Data) != 0 {
		t.Fatal("zero failed")
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if New(2, 3).Equal(New(3, 2), 1) {
		t.Fatal("different shapes reported equal")
	}
}

func TestMatVecKnown(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 0, -1}
	dst := make([]float64, 2)
	MatVec(dst, m, x)
	if dst[0] != -2 || dst[1] != -2 {
		t.Fatalf("MatVec = %v, want [-2 -2]", dst)
	}
}

func TestMatTVecKnown(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, -1}
	dst := make([]float64, 3)
	MatTVec(dst, m, x)
	want := []float64{-3, -3, -3}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MatTVec = %v, want %v", dst, want)
		}
	}
}

func TestMatVecTransposeConsistency(t *testing.T) {
	// Property: y^T (M x) == x^T (M^T y) for all M, x, y.
	f := func(seed uint64) bool {
		src := rng.NewPCG32(seed, 1)
		rows := 1 + rng.Intn(src, 8)
		cols := 1 + rng.Intn(src, 8)
		m := randomMatrix(src, rows, cols)
		x := make([]float64, cols)
		y := make([]float64, rows)
		for i := range x {
			x[i] = rng.Float64(src)*2 - 1
		}
		for i := range y {
			y[i] = rng.Float64(src)*2 - 1
		}
		mx := make([]float64, rows)
		MatVec(mx, m, x)
		mty := make([]float64, cols)
		MatTVec(mty, m, y)
		return math.Abs(Dot(y, mx)-Dot(x, mty)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOuterAcc(t *testing.T) {
	m := New(2, 3)
	OuterAcc(m, 2, []float64{1, 2}, []float64{3, 4, 5})
	want := FromSlice(2, 3, []float64{6, 8, 10, 12, 16, 20})
	if !m.Equal(want, 1e-12) {
		t.Fatalf("OuterAcc = %+v", m)
	}
}

func TestAxpyDot(t *testing.T) {
	dst := []float64{1, 1, 1}
	Axpy(dst, 2, []float64{1, 2, 3})
	if dst[0] != 3 || dst[1] != 5 || dst[2] != 7 {
		t.Fatalf("Axpy = %v", dst)
	}
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
}

func TestScaleSumMean(t *testing.T) {
	x := []float64{2, 4, 6}
	if Sum(x) != 12 {
		t.Fatalf("sum %v", Sum(x))
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float64{1, 3, 2}) != 1 {
		t.Fatal("argmax wrong")
	}
	if ArgMax([]float64{5, 5, 5}) != 0 {
		t.Fatal("tie should return first")
	}
	if ArgMax(nil) != -1 {
		t.Fatal("empty argmax")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("clamp wrong")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		x := []float64{Clamp(a, -50, 50), Clamp(b, -50, 50), Clamp(c, -50, 50)}
		dst := make([]float64, 3)
		Softmax(dst, x)
		sum := Sum(dst)
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		for _, v := range dst {
			if v < 0 || v > 1 {
				return false
			}
		}
		// Order preservation.
		return ArgMax(dst) == ArgMax(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{101, 102, 103}
	a := make([]float64, 3)
	b := make([]float64, 3)
	Softmax(a, x)
	Softmax(b, y)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatal("softmax not shift invariant")
		}
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]float64{0, 0.1, 0.5, 0.99, 1.0, -5, 7}, 0, 1, 10)
	if Sum64(h) != 7 {
		t.Fatalf("histogram loses mass: %v", h)
	}
	if h[0] != 2 { // 0 and the clamped -5 land in bin 0
		t.Fatalf("bin0 = %d, want 2; hist=%v", h[0], h)
	}
}

// Sum64 sums an int slice (test helper).
func Sum64(x []int) int {
	s := 0
	for _, v := range x {
		s += v
	}
	return s
}

func TestHistogramEdges(t *testing.T) {
	h := Histogram([]float64{0, 0.1, 0.5, 0.99, 1.0, -5, 7}, 0, 1, 10)
	want := []int{2, 1, 0, 0, 0, 1, 0, 0, 0, 3}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("hist=%v want %v", h, want)
		}
	}
}

func TestPhiKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.96, 0.9750021},
		{-1.96, 0.0249979},
		{3, 0.9986501},
	}
	for _, c := range cases {
		if math.Abs(Phi(c.x)-c.want) > 1e-6 {
			t.Fatalf("Phi(%v) = %v, want %v", c.x, Phi(c.x), c.want)
		}
	}
}

func TestPhiPDFIsDerivativeOfPhi(t *testing.T) {
	for _, x := range []float64{-2, -0.5, 0, 0.7, 2.3} {
		h := 1e-6
		num := (Phi(x+h) - Phi(x-h)) / (2 * h)
		if math.Abs(num-PhiPDF(x)) > 1e-6 {
			t.Fatalf("PhiPDF(%v) = %v, numeric %v", x, PhiPDF(x), num)
		}
	}
}

func TestSpikeProbLimits(t *testing.T) {
	if SpikeProb(1, 0) != 1 || SpikeProb(-1, 0) != 0 || SpikeProb(0, 0) != 1 {
		t.Fatal("zero-sigma limits wrong (mu>=0 fires)")
	}
	if math.Abs(SpikeProb(0, 1)-0.5) > 1e-12 {
		t.Fatal("mu=0 must give 0.5")
	}
	if SpikeProb(10, 1) < 0.999999 {
		t.Fatal("strongly positive mu must fire almost surely")
	}
}

func TestSpikeProbMonotonicInMu(t *testing.T) {
	prev := -1.0
	for mu := -5.0; mu <= 5.0; mu += 0.25 {
		p := SpikeProb(mu, 1.3)
		if p < prev {
			t.Fatalf("SpikeProb not monotonic at mu=%v", mu)
		}
		prev = p
	}
}

func TestSpikeProbGradMatchesNumeric(t *testing.T) {
	for _, mu := range []float64{-2, -0.3, 0, 0.9, 2.5} {
		for _, sigma := range []float64{0.3, 1, 2.7} {
			dMu, dSigma := SpikeProbGrad(mu, sigma)
			h := 1e-6
			numMu := (SpikeProb(mu+h, sigma) - SpikeProb(mu-h, sigma)) / (2 * h)
			numSig := (SpikeProb(mu, sigma+h) - SpikeProb(mu, sigma-h)) / (2 * h)
			if math.Abs(dMu-numMu) > 1e-5 || math.Abs(dSigma-numSig) > 1e-5 {
				t.Fatalf("grad mismatch at mu=%v sigma=%v: (%v,%v) vs (%v,%v)",
					mu, sigma, dMu, dSigma, numMu, numSig)
			}
		}
	}
}

func TestSpikeProbGradZeroSigma(t *testing.T) {
	dMu, dSigma := SpikeProbGrad(1, 0)
	if dMu != 0 || dSigma != 0 {
		t.Fatal("zero-sigma gradient must vanish")
	}
}

func BenchmarkMatVec256(b *testing.B) {
	src := rng.NewPCG32(1, 1)
	m := randomMatrix(src, 256, 256)
	x := make([]float64, 256)
	dst := make([]float64, 256)
	for i := range x {
		x[i] = rng.Float64(src)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVec(dst, m, x)
	}
}

func BenchmarkSpikeProb(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = SpikeProb(0.3, 1.1)
	}
	_ = sink
}
