// Package dataset provides the dataset container and the block-extraction
// geometry used to map 2-D inputs onto TrueNorth neuro-synaptic cores.
//
// The paper (Figure 3, Table 3) tiles each input image into 16x16 blocks at a
// configurable stride; each block feeds the 256 axons of one core in the first
// layer. BlockSpec reproduces exactly that geometry for both the 28x28 digit
// images and the 19x19 reshaped protein feature maps.
package dataset

import (
	"fmt"

	"repro/internal/rng"
)

// Dataset is an in-memory labelled dataset. Features are stored per sample in
// [0,1] (the paper scales pixel values to [0,1] before spike conversion).
type Dataset struct {
	Name       string
	X          [][]float64 // len N, each len FeatDim
	Y          []int       // len N, values in [0, NumClasses)
	FeatDim    int
	NumClasses int
	// Height and Width describe the 2-D arrangement of features used for
	// block extraction. Height*Width >= FeatDim; missing cells are zero.
	Height, Width int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// Validate checks internal consistency and returns a descriptive error.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("dataset %q: %d feature rows vs %d labels", d.Name, len(d.X), len(d.Y))
	}
	if d.Height*d.Width < d.FeatDim {
		return fmt.Errorf("dataset %q: grid %dx%d cannot hold %d features", d.Name, d.Height, d.Width, d.FeatDim)
	}
	for i, x := range d.X {
		if len(x) != d.FeatDim {
			return fmt.Errorf("dataset %q: sample %d has %d features, want %d", d.Name, i, len(x), d.FeatDim)
		}
		for j, v := range x {
			if v < 0 || v > 1 {
				return fmt.Errorf("dataset %q: sample %d feature %d = %v outside [0,1]", d.Name, i, j, v)
			}
		}
	}
	for i, y := range d.Y {
		if y < 0 || y >= d.NumClasses {
			return fmt.Errorf("dataset %q: sample %d label %d outside [0,%d)", d.Name, i, y, d.NumClasses)
		}
	}
	return nil
}

// Subset returns a view containing the first n samples (or all if n exceeds
// the length or is non-positive). The underlying feature slices are shared.
func (d *Dataset) Subset(n int) *Dataset {
	if n <= 0 || n > d.Len() {
		n = d.Len()
	}
	out := *d
	out.X = d.X[:n]
	out.Y = d.Y[:n]
	return &out
}

// Shuffled returns a copy of the dataset with samples permuted by src.
func (d *Dataset) Shuffled(src rng.Source) *Dataset {
	perm := rng.Perm(src, d.Len())
	out := *d
	out.X = make([][]float64, d.Len())
	out.Y = make([]int, d.Len())
	for i, p := range perm {
		out.X[i] = d.X[p]
		out.Y[i] = d.Y[p]
	}
	return &out
}

// ClassCounts returns the number of samples per class.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.NumClasses)
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}

// BlockSpec describes the tiling of a Height x Width feature grid into
// square blocks of side Block at the given Stride, exactly the "block stride"
// column of Table 3. Each block maps to one neuro-synaptic core.
type BlockSpec struct {
	Height, Width int
	Block         int
	Stride        int
}

// Positions returns the top-left row offsets of blocks along one axis of
// length extent: 0, Stride, 2*Stride, ... while the block still fits.
func positions(extent, block, stride int) []int {
	var pos []int
	for p := 0; p+block <= extent; p += stride {
		pos = append(pos, p)
	}
	return pos
}

// GridDims returns the number of block rows and columns.
func (s BlockSpec) GridDims() (rows, cols int) {
	return len(positions(s.Height, s.Block, s.Stride)), len(positions(s.Width, s.Block, s.Stride))
}

// Indices returns, for every block in row-major block order, the flat feature
// indices (into a Height*Width row-major grid) covered by that block.
// Every returned list has length Block*Block.
func (s BlockSpec) Indices() [][]int {
	if s.Block <= 0 || s.Stride <= 0 {
		panic(fmt.Sprintf("dataset: invalid BlockSpec %+v", s))
	}
	rowPos := positions(s.Height, s.Block, s.Stride)
	colPos := positions(s.Width, s.Block, s.Stride)
	out := make([][]int, 0, len(rowPos)*len(colPos))
	for _, r0 := range rowPos {
		for _, c0 := range colPos {
			idx := make([]int, 0, s.Block*s.Block)
			for r := r0; r < r0+s.Block; r++ {
				for c := c0; c < c0+s.Block; c++ {
					idx = append(idx, r*s.Width+c)
				}
			}
			out = append(out, idx)
		}
	}
	return out
}

// Batches yields minibatch index slices covering [0,n) in order after an
// optional shuffle. The final batch may be short.
func Batches(src rng.Source, n, batchSize int, shuffle bool) [][]int {
	if batchSize <= 0 {
		panic("dataset: batch size must be positive")
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if shuffle {
		rng.Shuffle(src, idx)
	}
	var out [][]int
	for s := 0; s < n; s += batchSize {
		e := s + batchSize
		if e > n {
			e = n
		}
		out = append(out, idx[s:e])
	}
	return out
}
