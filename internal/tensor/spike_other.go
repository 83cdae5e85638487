//go:build !amd64

package tensor

// vectorOK is false outside amd64: the Go spike kernels run everywhere else.
const vectorOK = false

func fwdLanes(terms []float64, ks []int32, xs []float64, cmax float64, acc *[2 * lanes]float64) {
	panic("tensor: no vector spike kernels on this architecture")
}

func bwdLanes(terms []float64, ks []int32, xs []float64, cmax float64, coef *[3 * lanes]float64) {
	panic("tensor: no vector spike kernels on this architecture")
}
