package deploy

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/truenorth"
)

// spikeCodeDim is FuzzSpikeCode's program width: three spike words, the
// last one partial.
const spikeCodeDim = 130

// spikeCodeEdges are the pixel values whose Eq. 8 handling is easiest to get
// wrong: negative, zero and saturated pixels draw nothing, while NaN,
// subnormals and values just below 1 draw one word against a threshold the
// float-to-uint32 conversion decides.
var spikeCodeEdges = []float64{
	-1, 0, math.Copysign(0, -1), 1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, 0x1p-1030, math.Nextafter(1, 0), 0x1p-33, 0x1p-32,
}

// FuzzSpikeCode pins compile + draw, the one Eq. 8 input program of the fast
// path, the ensembles and the chip, against the per-pixel rng.Bernoulli
// loop it replaces: every tick's staged words and the generator's end state
// must be equal, for a *rng.PCG32 source (the devirtualized loop) and an
// LFSR16 source (the generic one). Each byte of pixels picks one pixel: an
// edge value or a uniform intensity in [0,1). The destination starts full
// of stale spikes, which draw must overwrite.
func FuzzSpikeCode(f *testing.F) {
	for _, n := range []int{0, 1, 63, 64, 65, spikeCodeDim} {
		pixels := make([]byte, n)
		for i := range pixels {
			pixels[i] = byte(i * 7)
		}
		f.Add(pixels, uint64(n), false, uint8(3))
		f.Add(pixels, uint64(n), true, uint8(2))
	}
	f.Fuzz(func(t *testing.T, pixels []byte, seed uint64, lfsr bool, ticks uint8) {
		if len(pixels) > spikeCodeDim {
			pixels = pixels[:spikeCodeDim]
		}
		meta := rng.NewPCG32(seed, 21)
		x := make([]float64, len(pixels))
		for i, b := range pixels {
			if int(b) < len(spikeCodeEdges) {
				x[i] = spikeCodeEdges[b]
			} else {
				x[i] = rng.Float64(meta)
			}
		}
		var src, ref rng.Source
		if lfsr {
			src, ref = rng.NewLFSR16(seed), rng.NewLFSR16(seed)
		} else {
			src, ref = rng.NewPCG32(seed, 22), rng.NewPCG32(seed, 22)
		}
		sc := newSpikeCode(spikeCodeDim)
		sc.compile(x)
		got, want := truenorth.NewBitVec(spikeCodeDim), truenorth.NewBitVec(spikeCodeDim)
		for tick := 0; tick < 1+int(ticks%4); tick++ {
			for w := range got {
				got[w] = ^uint64(0)
			}
			sc.draw(got, src)
			want.Zero()
			for i, v := range x {
				if rng.Bernoulli(ref, v) {
					want.Set(i)
				}
			}
			for w := range got {
				if got[w] != want[w] {
					t.Fatalf("tick %d word %d: draw %#x, per-pixel Bernoulli %#x", tick, w, got[w], want[w])
				}
			}
		}
		if lfsr {
			if *src.(*rng.LFSR16) != *ref.(*rng.LFSR16) {
				t.Fatal("LFSR16 end state differs from the per-pixel Bernoulli loop")
			}
		} else if *src.(*rng.PCG32) != *ref.(*rng.PCG32) {
			t.Fatal("PCG32 end state differs from the per-pixel Bernoulli loop")
		}
	})
}

// TestFrameAllocs: once its scratch has compiled one frame, SampledNet.Frame
// allocates nothing, at one tick per frame and at several.
func TestFrameAllocs(t *testing.T) {
	sn, fs := tickFixture(t, 3)
	x := fractionalInput(sn.InputDim(), rng.NewPCG32(3, 6))
	src := rng.NewPCG32(4, 4)
	counts := make([]int64, sn.Classes())
	for _, spf := range []int{1, 2} {
		sn.Frame(fs, x, spf, src, counts)
		if a := testing.AllocsPerRun(50, func() { sn.Frame(fs, x, spf, src, counts) }); a != 0 {
			t.Fatalf("spf %d: warm Frame allocates %v times per call", spf, a)
		}
	}
}
