// Package tensor implements the small dense linear-algebra kernel used by the
// training framework and the experiment harness.
//
// Only float64 matrices are provided; the workloads in this reproduction are
// small (per-core 256x256 blocks) and memory bandwidth, not precision, is the
// limit. Matrices are row-major with an explicit stride so sub-views are cheap.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Stride     int
	Data       []float64
}

// New allocates a zeroed rows x cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Stride: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (length rows*cols, row-major) without copying.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice %dx%d needs %d values, got %d", rows, cols, rows*cols, len(data)))
	}
	return &Matrix{Rows: rows, Cols: cols, Stride: cols, Data: data}
}

// View returns the rows x cols sub-matrix starting at (r0, c0), aliasing the
// receiver's storage (Stride is inherited, so the view is generally
// non-compact). Mutations through the view are visible in the parent.
// View is kept small enough to inline so that hot-loop views of scratch
// panels stay on the caller's stack instead of allocating.
func (m *Matrix) View(r0, c0, rows, cols int) *Matrix {
	if r0 < 0 || c0 < 0 || rows < 0 || cols < 0 || r0+rows > m.Rows || c0+cols > m.Cols {
		viewPanic(m, r0, c0, rows, cols)
	}
	if rows == 0 || cols == 0 {
		return &Matrix{Rows: rows, Cols: cols, Stride: m.Stride}
	}
	lo := r0*m.Stride + c0
	return &Matrix{Rows: rows, Cols: cols, Stride: m.Stride, Data: m.Data[lo : (r0+rows-1)*m.Stride+c0+cols]}
}

func viewPanic(m *Matrix, r0, c0, rows, cols int) {
	panic(fmt.Sprintf("tensor: View [%d:%d, %d:%d] outside %dx%d", r0, r0+rows, c0, c0+cols, m.Rows, m.Cols))
}

// At returns element (r,c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Stride+c] }

// Set assigns element (r,c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Stride+c] = v }

// Row returns row r as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) []float64 { return m.Data[r*m.Stride : r*m.Stride+m.Cols] }

// Clone returns a deep copy with compact stride.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		copy(out.Row(r), m.Row(r))
	}
	return out
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for i := range row {
			row[i] = v
		}
	}
}

// Zero resets the matrix to all zeros.
func (m *Matrix) Zero() { m.Fill(0) }

// Equal reports whether two matrices have identical shape and elements within tol.
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for r := 0; r < m.Rows; r++ {
		a, b := m.Row(r), o.Row(r)
		for i := range a {
			if math.Abs(a[i]-b[i]) > tol {
				return false
			}
		}
	}
	return true
}

// MatVec computes dst = M * x. dst must have length M.Rows and x length M.Cols.
func MatVec(dst []float64, m *Matrix, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("tensor: MatVec shape mismatch m=%dx%d x=%d dst=%d", m.Rows, m.Cols, len(x), len(dst)))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		var s float64
		for i, v := range row {
			s += v * x[i]
		}
		dst[r] = s
	}
}

// MatTVec computes dst = M^T * x. dst must have length M.Cols and x length M.Rows.
func MatTVec(dst []float64, m *Matrix, x []float64) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: MatTVec shape mismatch m=%dx%d x=%d dst=%d", m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := range dst {
		dst[i] = 0
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		xv := x[r]
		if xv == 0 {
			continue
		}
		for i, v := range row {
			dst[i] += v * xv
		}
	}
}

// OuterAcc accumulates dst += alpha * x * y^T (x: rows, y: cols of dst).
func OuterAcc(dst *Matrix, alpha float64, x, y []float64) {
	if len(x) != dst.Rows || len(y) != dst.Cols {
		panic("tensor: OuterAcc shape mismatch")
	}
	for r, xv := range x {
		if xv == 0 {
			continue
		}
		row := dst.Row(r)
		a := alpha * xv
		for c, yv := range y {
			row[c] += a * yv
		}
	}
}

// Axpy computes dst[i] += alpha*x[i].
func Axpy(dst []float64, alpha float64, x []float64) {
	if len(dst) != len(x) {
		panic("tensor: Axpy length mismatch")
	}
	for i, v := range x {
		dst[i] += alpha * v
	}
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Sum returns the sum of all elements.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// ArgMax returns the index of the first maximal element (-1 for empty input).
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best, bi := x[0], 0
	for i := 1; i < len(x); i++ {
		if x[i] > best {
			best, bi = x[i], i
		}
	}
	return bi
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Softmax writes softmax(x) into dst (dst may alias x). Numerically stable.
func Softmax(dst, x []float64) {
	if len(dst) != len(x) {
		panic("tensor: Softmax length mismatch")
	}
	m := x[ArgMax(x)]
	var z float64
	for i, v := range x {
		e := math.Exp(v - m)
		dst[i] = e
		z += e
	}
	for i := range dst {
		dst[i] /= z
	}
}

// Histogram counts x into bins equal-width bins over [lo, hi]. Values at hi
// fall into the last bin; values outside the range are clamped to the edge
// bins so the total always equals len(x).
func Histogram(x []float64, lo, hi float64, bins int) []int {
	if bins <= 0 || hi <= lo {
		panic("tensor: Histogram needs bins>0 and hi>lo")
	}
	h := make([]int, bins)
	w := (hi - lo) / float64(bins)
	for _, v := range x {
		b := int((v - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		h[b]++
	}
	return h
}
