package tensor

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// onBothPaths runs test once on the vector spike kernels (skipped on CPUs
// without AVX) and once on the Go kernels.
func onBothPaths(t *testing.T, test func(t *testing.T)) {
	defer SetVectorKernels(true)
	for _, path := range []struct {
		name   string
		vector bool
	}{{"vector", true}, {"go", false}} {
		t.Run(path.name, func(t *testing.T) {
			if SetVectorKernels(path.vector) != path.vector {
				t.Skip("no vector spike kernels on this CPU")
			}
			test(t)
		})
	}
}

// fuzzWeight maps a byte to an ordinary weight or, for a few byte values, a
// special one: NaN, ±Inf, a subnormal, ±0 or a huge finite value.
func fuzzWeight(b byte, src *rng.PCG32) float64 {
	switch b % 32 {
	case 0:
		return math.NaN()
	case 8:
		return -math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return float64(b/32+1) * math.SmallestNonzeroFloat64
	case 4:
		return -3 * math.SmallestNonzeroFloat64
	case 5:
		return math.Copysign(0, -1)
	case 6:
		return 0
	case 7:
		return math.MaxFloat64 / 4
	}
	return (rng.Float64(src)*2 - 1) * 2
}

// FuzzSpikeKernels checks the vector spike kernels against the Go kernels
// bit for bit: forward mean, sigma and spike probability, and the dIn == nil
// backward weight and bias gradients. Shapes cover neuron counts off the
// lane width, batches of 0 and 1, empty and fully dense input rows; weights
// come from the fuzz bytes and include NaN, ±Inf, subnormals and ±0;
// upstream gradients mix zero and nonzero lanes within a block, so masked
// lanes meet NaN terms.
//
// Values compare by Float64bits, so -0 differs from +0, except that any NaN
// matches any NaN. When both operands of an x86 add or multiply are NaN, the
// result is the first operand's NaN, and the Go compiler orders operands
// freely: its inlined copies of backRow0 in the pair loop and in the tail
// loop already order the variance-term multiply differently. So where two
// NaNs of different bits meet (|NaN| clears the sign, Inf-Inf and the root
// of a negative variance make the default NaN), the Go kernel's own payload
// is not defined; that a result is NaN is.
func FuzzSpikeKernels(f *testing.F) {
	f.Add(uint64(1), uint8(16), uint8(8), uint8(40), uint8(60), []byte{})
	f.Add(uint64(2), uint8(1), uint8(13), uint8(33), uint8(100), []byte{0, 9, 1, 9, 2, 9})
	f.Add(uint64(3), uint8(0), uint8(24), uint8(17), uint8(0), []byte{0})
	f.Add(uint64(4), uint8(5), uint8(17), uint8(64), uint8(255), []byte{0, 1, 2, 3, 4, 5, 6, 7, 35, 67})
	f.Add(uint64(5), uint8(9), uint8(31), uint8(9), uint8(128), []byte{32, 64, 96, 128, 0, 0, 1, 2})
	f.Fuzz(func(t *testing.T, seed uint64, batchB, nrB, axonsB, density uint8, wbytes []byte) {
		if !vectorOK {
			t.Skip("no vector spike kernels on this CPU")
		}
		defer SetVectorKernels(true)
		src := rng.NewPCG32(seed, 11)
		batch, nr, axons := int(batchB%18), 1+int(nrB%40), 1+int(axonsB%72)

		// Input rows: empty, fully dense, or at the given density, with
		// the occasional subnormal or negative value.
		x := New(batch, axons)
		for s := 0; s < batch; s++ {
			row := x.Row(s)
			mode := rng.Intn(src, 4)
			for k := range row {
				switch {
				case mode == 0:
				case mode == 1 || rng.Intn(src, 256) < int(density):
					row[k] = rng.Float64(src)
					if rng.Intn(src, 16) == 0 {
						row[k] = -row[k]
					}
				}
				if row[k] != 0 && rng.Intn(src, 32) == 0 {
					row[k] = 7 * math.SmallestNonzeroFloat64
				}
			}
		}
		w := New(nr, axons)
		for i := range w.Data {
			b := byte(src.Uint32())
			if len(wbytes) > 0 {
				b = wbytes[i%len(wbytes)] ^ byte(i/len(wbytes))
			}
			w.Data[i] = fuzzWeight(b, src)
		}
		bias := make([]float64, nr)
		for i := range bias {
			bias[i] = rng.Float64(src) - 0.5
		}
		var cmax, sigmaFloor, muOffset float64 = 1 + rng.Float64(src), 1e-3, 0
		if seed&1 != 0 {
			sigmaFloor, muOffset = 0, 0.5
		}
		sigmaConst := seed&2 != 0

		type result struct {
			mu, sigma, act, gw *Matrix
			gb                 []float64
		}
		var dact *Matrix
		run := func(vector bool) result {
			SetVectorKernels(vector)
			r := result{mu: New(batch, nr), sigma: New(batch, nr), act: New(batch, nr), gw: New(nr, axons), gb: make([]float64, nr)}
			scr := NewSpikeScratch(batch, axons)
			SpikeForwardBatch(r.mu, r.sigma, r.act, x, w, bias, cmax, sigmaFloor, muOffset, scr)
			if dact == nil {
				// Upstream gradients: whole blocks of zeros, mixed
				// blocks, and occasional huge values.
				dact = New(batch, nr)
				for i := range dact.Data {
					switch rng.Intn(src, 8) {
					case 0, 1, 2:
					case 3:
						dact.Data[i] = 1e300
					default:
						dact.Data[i] = rng.Float64(src)*2 - 1
					}
				}
				if batch > 0 {
					clear(dact.Row(0)[:min(lanes, nr)])
				}
			}
			SpikeBackwardBatch(dact, r.mu, r.sigma, x, w, r.gw, r.gb, nil, nil, cmax, sigmaConst, scr)
			return r
		}
		goRes := run(false)
		vecRes := run(true)
		same := func(name string, a, b []float64) {
			t.Helper()
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
					t.Fatalf("%s[%d]: vector %v (%#x), Go %v (%#x)", name, i, a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
				}
			}
		}
		same("mu", vecRes.mu.Data, goRes.mu.Data)
		same("sigma", vecRes.sigma.Data, goRes.sigma.Data)
		same("act", vecRes.act.Data, goRes.act.Data)
		same("gw", vecRes.gw.Data, goRes.gw.Data)
		same("gbias", vecRes.gb, goRes.gb)
	})
}
