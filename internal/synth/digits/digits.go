// Package digits procedurally generates an MNIST-like handwritten-digit
// dataset: 28x28 grayscale images in [0,1], ten classes, deterministic given a
// seed.
//
// The real MNIST corpus is not redistributable inside this offline
// reproduction, so we substitute a generator that exercises the identical code
// path the paper's experiments need: normalized pixel intensities feeding
// 16x16 block cores (docs/ARCHITECTURE.md "The simulated substrate"). Each digit is a polyline skeleton
// in the unit square; per-sample randomness applies an affine warp (rotation,
// anisotropic scale, shear, translation), control-point jitter, variable
// stroke thickness, intensity scaling, and speckle noise, producing
// within-class variability comparable in spirit to handwriting.
package digits

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// Size is the image side length; images are Size x Size like MNIST.
const Size = 28

// stroke is a polyline in unit-square coordinates (x right, y down).
type stroke [][2]float64

// circle returns an n-gon approximating an ellipse centred at (cx,cy).
func circle(cx, cy, rx, ry float64, n int, from, to float64) stroke {
	s := make(stroke, 0, n+1)
	for i := 0; i <= n; i++ {
		t := from + (to-from)*float64(i)/float64(n)
		s = append(s, [2]float64{cx + rx*math.Cos(t), cy + ry*math.Sin(t)})
	}
	return s
}

// templates holds the skeleton strokes for digits 0-9.
var templates = [10][]stroke{
	0: {circle(0.5, 0.5, 0.24, 0.34, 20, 0, 2*math.Pi)},
	1: {{{0.38, 0.25}, {0.54, 0.12}, {0.54, 0.88}}},
	2: {append(circle(0.5, 0.32, 0.22, 0.20, 10, math.Pi, 2.25*math.Pi),
		[2]float64{0.30, 0.85}, [2]float64{0.74, 0.85})},
	3: {append(circle(0.48, 0.32, 0.20, 0.19, 10, 1.2*math.Pi, 2.6*math.Pi),
		circle(0.48, 0.68, 0.22, 0.20, 10, 1.4*math.Pi, 2.8*math.Pi)...)},
	4: {{{0.62, 0.12}, {0.28, 0.60}, {0.76, 0.60}}, {{0.62, 0.35}, {0.62, 0.88}}},
	5: {{{0.70, 0.14}, {0.34, 0.14}, {0.32, 0.46}},
		circle(0.50, 0.64, 0.22, 0.21, 12, 1.3*math.Pi, 2.85*math.Pi)},
	6: {{{0.62, 0.12}, {0.40, 0.40}, {0.32, 0.62}},
		circle(0.50, 0.67, 0.19, 0.19, 14, 0, 2*math.Pi)},
	7: {{{0.28, 0.14}, {0.72, 0.14}, {0.44, 0.88}}},
	8: {circle(0.5, 0.32, 0.18, 0.17, 14, 0, 2*math.Pi),
		circle(0.5, 0.68, 0.21, 0.19, 14, 0, 2*math.Pi)},
	9: {circle(0.5, 0.33, 0.19, 0.19, 14, 0, 2*math.Pi),
		{{0.69, 0.36}, {0.66, 0.60}, {0.52, 0.88}}},
}

// Config controls generation. The zero value is not useful; use DefaultConfig.
type Config struct {
	// Train and Test are the split sizes (paper Table 1: 60000 / 10000).
	Train, Test int
	// Seed makes the whole corpus reproducible.
	Seed uint64
	// Jitter scales all geometric randomness; 1 is the calibrated default.
	// Higher values make the task harder (lower attainable accuracy).
	Jitter float64
	// Noise is the amplitude of additive speckle noise.
	Noise float64
}

// DefaultConfig matches Table 1 of the paper and is calibrated so the paper's
// float network (test bench 1) lands in the mid-90s accuracy band.
func DefaultConfig() Config {
	return Config{Train: 60000, Test: 10000, Seed: 20160605, Jitter: 1, Noise: 0.06}
}

// affine is a 2x3 transform applied to unit-square points.
type affine struct{ a, b, c, d, tx, ty float64 }

func (t affine) apply(p [2]float64) (float64, float64) {
	x, y := p[0]-0.5, p[1]-0.5
	return t.a*x + t.b*y + 0.5 + t.tx, t.c*x + t.d*y + 0.5 + t.ty
}

// sampleAffine draws a random warp: rotation, anisotropic scale, shear and
// translation, all scaled by jitter.
func sampleAffine(src rng.Source, jitter float64) affine {
	rot := (rng.Float64(src)*2 - 1) * 0.22 * jitter
	sx := 1 + (rng.Float64(src)*2-1)*0.16*jitter
	sy := 1 + (rng.Float64(src)*2-1)*0.16*jitter
	shear := (rng.Float64(src)*2 - 1) * 0.18 * jitter
	tx := (rng.Float64(src)*2 - 1) * 0.06 * jitter
	ty := (rng.Float64(src)*2 - 1) * 0.06 * jitter
	cos, sin := math.Cos(rot), math.Sin(rot)
	return affine{
		a:  sx * (cos + shear*sin),
		b:  sx * (-sin + shear*cos),
		c:  sy * sin,
		d:  sy * cos,
		tx: tx,
		ty: ty,
	}
}

// segDist returns the distance from point (px,py) to segment (x1,y1)-(x2,y2).
func segDist(px, py, x1, y1, x2, y2 float64) float64 {
	dx, dy := x2-x1, y2-y1
	l2 := dx*dx + dy*dy
	var t float64
	if l2 > 0 {
		t = ((px-x1)*dx + (py-y1)*dy) / l2
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
	}
	cx, cy := x1+t*dx, y1+t*dy
	return math.Hypot(px-cx, py-cy)
}

// Render draws digit d into a Size*Size image using randomness from src.
// The returned pixels are in [0,1].
func Render(src rng.Source, d int, jitter, noise float64) []float64 {
	warp := sampleAffine(src, jitter)
	thick := 1.0 + rng.Float64(src)*0.9*jitter // stroke half-width in pixels
	peak := 0.82 + rng.Float64(src)*0.18       // ink intensity

	// Warp and jitter the skeleton into pixel coordinates.
	type seg struct{ x1, y1, x2, y2 float64 }
	var segs []seg
	for _, st := range templates[d] {
		px, py := 0.0, 0.0
		for i, p := range st {
			x, y := warp.apply(p)
			x += (rng.Float64(src)*2 - 1) * 0.015 * jitter
			y += (rng.Float64(src)*2 - 1) * 0.015 * jitter
			x *= Size
			y *= Size
			if i > 0 {
				segs = append(segs, seg{px, py, x, y})
			}
			px, py = x, y
		}
	}

	img := make([]float64, Size*Size)
	for r := 0; r < Size; r++ {
		for c := 0; c < Size; c++ {
			px, py := float64(c)+0.5, float64(r)+0.5
			best := math.Inf(1)
			for _, s := range segs {
				if d := segDist(px, py, s.x1, s.y1, s.x2, s.y2); d < best {
					best = d
				}
			}
			// Soft-edged stroke: full ink inside the half-width, linear
			// falloff over one pixel (cheap antialiasing).
			var v float64
			switch {
			case best <= thick:
				v = peak
			case best <= thick+1:
				v = peak * (thick + 1 - best)
			}
			if noise > 0 {
				v += (rng.Float64(src)*2 - 1) * noise
			}
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			img[r*Size+c] = v
		}
	}
	return img
}

// Generate builds the train and test splits. Classes are balanced round-robin
// and then shuffled; train and test use disjoint random streams.
func Generate(cfg Config) (train, test *dataset.Dataset) {
	train = generateSplit("digits-train", cfg.Train, cfg, 1)
	test = generateSplit("digits-test", cfg.Test, cfg, 2)
	return train, test
}

func generateSplit(name string, n int, cfg Config, stream uint64) *dataset.Dataset {
	src := rng.NewPCG32(cfg.Seed, stream)
	d := &dataset.Dataset{
		Name:       name,
		FeatDim:    Size * Size,
		NumClasses: 10,
		Height:     Size,
		Width:      Size,
		X:          make([][]float64, n),
		Y:          make([]int, n),
	}
	// Digits render in contiguous chunks, one per CPU. Render draws a fixed
	// number of words for a given label and noise setting, so each chunk
	// starts from a copy of src moved past the words of the digits before
	// it, and the corpus is bit-identical to a serial render.
	words := wordsPerLabel(cfg.Jitter, cfg.Noise)
	procs := runtime.GOMAXPROCS(0)
	chunk := (n + procs - 1) / procs
	var wg sync.WaitGroup
	var skip uint64
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		part := *src
		part.Advance(skip)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				label := i % 10
				d.X[i] = Render(&part, label, cfg.Jitter, cfg.Noise)
				d.Y[i] = label
			}
		}()
		for i := lo; i < hi; i++ {
			skip += words[i%10]
		}
	}
	wg.Wait()
	src.Advance(skip)
	return d.Shuffled(src.Split(99))
}

// wordsPerLabel counts the generator words one Render of each label draws.
func wordsPerLabel(jitter, noise float64) (words [10]uint64) {
	for label := range words {
		c := &countingSource{src: rng.NewPCG32(0, 0)}
		Render(c, label, jitter, noise)
		words[label] = c.n
	}
	return words
}

// countingSource counts the words drawn from src.
type countingSource struct {
	src rng.Source
	n   uint64
}

func (c *countingSource) Uint32() uint32 {
	c.n++
	return c.src.Uint32()
}

// ASCII renders an image as a coarse ASCII art string, one rune per pixel.
// Intended for debugging and the quickstart example.
func ASCII(img []float64) string {
	const ramp = " .:-=+*#%@"
	out := make([]byte, 0, (Size+1)*Size)
	for r := 0; r < Size; r++ {
		for c := 0; c < Size; c++ {
			v := img[r*Size+c]
			idx := int(v * float64(len(ramp)-1))
			out = append(out, ramp[idx])
		}
		out = append(out, '\n')
	}
	return string(out)
}
