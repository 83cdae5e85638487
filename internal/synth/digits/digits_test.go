package digits

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
)

func TestRenderDeterministic(t *testing.T) {
	a := Render(rng.NewPCG32(7, 7), 3, 1, 0.05)
	b := Render(rng.NewPCG32(7, 7), 3, 1, 0.05)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pixel %d differs with same seed", i)
		}
	}
}

func TestRenderRange(t *testing.T) {
	src := rng.NewPCG32(1, 1)
	for d := 0; d < 10; d++ {
		img := Render(src, d, 1.5, 0.1)
		if len(img) != Size*Size {
			t.Fatalf("digit %d: %d pixels", d, len(img))
		}
		for i, v := range img {
			if v < 0 || v > 1 {
				t.Fatalf("digit %d pixel %d = %v", d, i, v)
			}
		}
	}
}

func TestRenderHasInk(t *testing.T) {
	src := rng.NewPCG32(2, 2)
	for d := 0; d < 10; d++ {
		img := Render(src, d, 1, 0)
		ink := 0.0
		for _, v := range img {
			ink += v
		}
		// Every digit must draw something substantial but not flood the canvas.
		if ink < 15 || ink > 400 {
			t.Fatalf("digit %d total ink %v implausible", d, ink)
		}
	}
}

func TestRenderVariability(t *testing.T) {
	src := rng.NewPCG32(3, 3)
	a := Render(src, 5, 1, 0)
	b := Render(src, 5, 1, 0)
	diff := 0.0
	for i := range a {
		diff += math.Abs(a[i] - b[i])
	}
	if diff < 1 {
		t.Fatalf("two samples of the same class nearly identical (diff=%v)", diff)
	}
}

func TestClassesAreDistinguishable(t *testing.T) {
	// Nearest-centroid classification on raw pixels should beat chance by a
	// wide margin if the classes carry signal.
	cfg := Config{Train: 400, Test: 200, Seed: 11, Jitter: 1, Noise: 0.05}
	train, test := Generate(cfg)
	centroids := make([][]float64, 10)
	counts := make([]int, 10)
	for i := range centroids {
		centroids[i] = make([]float64, Size*Size)
	}
	for i := range train.X {
		y := train.Y[i]
		counts[y]++
		for j, v := range train.X[i] {
			centroids[y][j] += v
		}
	}
	for c := range centroids {
		for j := range centroids[c] {
			centroids[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for i := range test.X {
		best, bc := math.Inf(1), -1
		for c := range centroids {
			d := 0.0
			for j, v := range test.X[i] {
				dd := v - centroids[c][j]
				d += dd * dd
			}
			if d < best {
				best, bc = d, c
			}
		}
		if bc == test.Y[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(test.X))
	if acc < 0.5 {
		t.Fatalf("nearest-centroid accuracy %.2f; classes not separable enough", acc)
	}
	t.Logf("nearest-centroid accuracy %.3f", acc)
}

func TestGenerateSplitsDisjointStreams(t *testing.T) {
	cfg := Config{Train: 30, Test: 30, Seed: 5, Jitter: 1, Noise: 0}
	train, test := Generate(cfg)
	// Same size, same seed: if streams were shared the images would align.
	identical := 0
	for i := range train.X {
		same := true
		for j := range train.X[i] {
			if train.X[i][j] != test.X[i][j] {
				same = false
				break
			}
		}
		if same {
			identical++
		}
	}
	if identical > 0 {
		t.Fatalf("%d identical images across train/test", identical)
	}
}

func TestGenerateBalancedClasses(t *testing.T) {
	cfg := Config{Train: 100, Test: 50, Seed: 6, Jitter: 1, Noise: 0}
	train, test := Generate(cfg)
	for c, n := range train.ClassCounts() {
		if n != 10 {
			t.Fatalf("train class %d count %d, want 10", c, n)
		}
	}
	for c, n := range test.ClassCounts() {
		if n != 5 {
			t.Fatalf("test class %d count %d, want 5", c, n)
		}
	}
}

func TestGenerateValidates(t *testing.T) {
	cfg := Config{Train: 60, Test: 40, Seed: 8, Jitter: 1.2, Noise: 0.1}
	train, test := Generate(cfg)
	if err := train.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := test.Validate(); err != nil {
		t.Fatal(err)
	}
	if train.Height != Size || train.Width != Size || train.NumClasses != 10 {
		t.Fatalf("metadata %+v", train)
	}
}

func TestGenerateReproducible(t *testing.T) {
	cfg := Config{Train: 20, Test: 10, Seed: 9, Jitter: 1, Noise: 0.05}
	a, _ := Generate(cfg)
	b, _ := Generate(cfg)
	for i := range a.X {
		if a.Y[i] != b.Y[i] {
			t.Fatalf("labels diverge at %d", i)
		}
		for j := range a.X[i] {
			if a.X[i][j] != b.X[i][j] {
				t.Fatalf("pixels diverge at sample %d pixel %d", i, j)
			}
		}
	}
}

func TestASCII(t *testing.T) {
	img := make([]float64, Size*Size)
	img[0] = 1
	art := ASCII(img)
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != Size {
		t.Fatalf("%d lines", len(lines))
	}
	if lines[0][0] != '@' {
		t.Fatalf("bright pixel rendered as %q", lines[0][0])
	}
	if lines[1][0] != ' ' {
		t.Fatalf("dark pixel rendered as %q", lines[1][0])
	}
}

func BenchmarkRender(b *testing.B) {
	src := rng.NewPCG32(1, 1)
	for i := 0; i < b.N; i++ {
		Render(src, i%10, 1, 0.05)
	}
}

// serialSplit is the one-CPU generateSplit: every digit rendered in order
// from the split's generator.
func serialSplit(name string, n int, cfg Config, stream uint64) *dataset.Dataset {
	src := rng.NewPCG32(cfg.Seed, stream)
	d := &dataset.Dataset{Name: name, FeatDim: Size * Size, NumClasses: 10, Height: Size, Width: Size,
		X: make([][]float64, n), Y: make([]int, n)}
	for i := 0; i < n; i++ {
		d.X[i] = Render(src, i%10, cfg.Jitter, cfg.Noise)
		d.Y[i] = i % 10
	}
	return d.Shuffled(src.Split(99))
}

// TestGenerateMatchesSerialRender: rendering a split in parallel chunks
// yields the serial corpus bit for bit, with and without speckle noise, at
// GOMAXPROCS 1 and 2, for split sizes that do and do not divide evenly.
func TestGenerateMatchesSerialRender(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, noise := range []float64{0, 0.06} {
			for _, n := range []int{0, 1, 7, 53} {
				cfg := Config{Seed: 5, Jitter: 1, Noise: noise}
				got := generateSplit("s", n, cfg, 3)
				want := serialSplit("s", n, cfg, 3)
				for i := range want.X {
					if got.Y[i] != want.Y[i] {
						t.Fatalf("procs %d noise %v n %d: label %d = %d, serial %d", procs, noise, n, i, got.Y[i], want.Y[i])
					}
					for j, v := range want.X[i] {
						if math.Float64bits(got.X[i][j]) != math.Float64bits(v) {
							t.Fatalf("procs %d noise %v n %d: digit %d pixel %d = %v, serial %v", procs, noise, n, i, j, got.X[i][j], v)
						}
					}
				}
			}
		}
	}
}
