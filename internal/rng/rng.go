// Package rng provides the deterministic pseudo-random number generators used
// throughout the TrueNorth reproduction.
//
// Three generators are provided:
//
//   - PCG32: the default software generator (O'Neill's PCG-XSH-RR 64/32).
//     Fast, statistically strong, and splittable into independent streams, it
//     backs dataset synthesis, weight initialization, and Monte-Carlo
//     deployment sampling.
//   - SplitMix64: a tiny mixer used to derive seeds and stream identifiers.
//   - LFSR16: a 16-bit Fibonacci linear-feedback shift register modelled after
//     the hardware PRNG inside each TrueNorth neuro-synaptic core, which draws
//     the per-tick synapse/leak/threshold randomness. It is deliberately weak
//     (period 2^16-1) so that experiments can quantify the effect of the real
//     chip's low-quality randomness against PCG32.
//
// All generators implement Source, and most consumers in this repository take
// a Source so the two families are interchangeable. The exceptions hold a
// PCG32 by value because they need its jump-ahead (Peek, Advance) or seed it
// in place: every truenorth chip core owns one as its leak generator.
package rng

import "math"

// Source is the minimal generator interface used across the repository.
// Implementations must be deterministic given their seed.
type Source interface {
	// Uint32 returns the next 32 uniformly distributed bits.
	Uint32() uint32
}

// PCG32 is a permuted congruential generator (PCG-XSH-RR 64/32).
// The zero value is NOT ready for use; construct with NewPCG32.
type PCG32 struct {
	state uint64
	inc   uint64 // stream selector; always odd
}

const pcgMult = 6364136223846793005

// NewPCG32 returns a generator seeded with seed on stream stream.
// Distinct streams are statistically independent sequences.
func NewPCG32(seed, stream uint64) *PCG32 {
	p := new(PCG32)
	p.Seed(seed, stream)
	return p
}

// Seed (re)initializes p in place, exactly as NewPCG32 does. It exists so
// callers can seed generators living in a caller-managed backing array
// without a per-generator allocation.
func (p *PCG32) Seed(seed, stream uint64) {
	p.inc = stream<<1 | 1
	p.state = 0
	p.Uint32()
	p.state += seed
	p.Uint32()
}

// Uint32 advances the generator and returns the next 32 bits.
func (p *PCG32) Uint32() uint32 {
	old := p.state
	p.state = old*pcgMult + p.inc
	return pcgOutput(old)
}

// pcgOutput is the XSH-RR output permutation of one LCG state.
func pcgOutput(s uint64) uint32 {
	xorshifted := uint32(((s >> 18) ^ s) >> 27)
	rot := uint32(s >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// pcgJumpTable is the size of the O(1) jump-ahead table: it covers every
// offset up to one 256-neuron core's worth of draws.
const pcgJumpTable = 256

// pcgJumpMul[k] and pcgJumpAdd[k] are the coefficients of the k-step LCG
// jump: state_k = state*pcgJumpMul[k] + inc*pcgJumpAdd[k], i.e. A^k and
// sum_{i<k} A^i with A = pcgMult (all mod 2^64).
var pcgJumpMul, pcgJumpAdd = func() (mul, add [pcgJumpTable + 1]uint64) {
	mul[0] = 1
	for k := 0; k < pcgJumpTable; k++ {
		mul[k+1] = mul[k] * pcgMult
		add[k+1] = add[k]*pcgMult + 1
	}
	return mul, add
}()

// pcgJump returns the k-step jump coefficients (see pcgJumpMul) by
// square-and-multiply, for offsets beyond the table (Brown, "Random Number
// Generation with Arbitrary Strides", 1994).
func pcgJump(k uint64) (mul, add uint64) {
	mul, add = 1, 0
	curMul, curAdd := uint64(pcgMult), uint64(1)
	for ; k > 0; k >>= 1 {
		if k&1 != 0 {
			mul, add = mul*curMul, add*curMul+curAdd
		}
		curMul, curAdd = curMul*curMul, (curMul+1)*curAdd
	}
	return mul, add
}

// jumped returns the state k steps ahead without advancing p.
func (p *PCG32) jumped(k uint64) uint64 {
	if k <= pcgJumpTable {
		return p.state*pcgJumpMul[k] + p.inc*pcgJumpAdd[k]
	}
	mul, add := pcgJump(k)
	return p.state*mul + p.inc*add
}

// Peek returns the word the (k+1)-th next Uint32 call would return — Peek(0)
// is the next word — without advancing the generator. It is O(1) for
// k <= 256 and O(log k) beyond.
func (p *PCG32) Peek(k uint64) uint32 { return pcgOutput(p.jumped(k)) }

// Advance moves the generator n words ahead, leaving it exactly where n
// Uint32 calls would. It is O(1) for n <= 256 and O(log n) beyond.
func (p *PCG32) Advance(n uint64) { p.state = p.jumped(n) }

// Split returns a new, statistically independent generator derived from the
// current state and the given label. The receiver is advanced once so repeated
// splits with the same label differ.
func (p *PCG32) Split(label uint64) *PCG32 {
	q := new(PCG32)
	p.SplitInto(q, label)
	return q
}

// SplitInto seeds dst with exactly the stream Split(label) would return,
// without allocating: dst may live in a caller-managed arena. The receiver
// advances identically to Split.
func (p *PCG32) SplitInto(dst *PCG32, label uint64) {
	s := SplitMix64(uint64(p.Uint32())<<32 | uint64(p.Uint32()))
	dst.Seed(s^SplitMix64(label), SplitMix64(label+0x9e3779b97f4a7c15))
}

// SplitMix64 is Steele et al.'s 64-bit finalizing mixer. It maps any input to
// a well-distributed output and is used for seed derivation.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// LFSR16 is a 16-bit Fibonacci LFSR with taps (16,15,13,4), the maximal-length
// polynomial x^16 + x^15 + x^13 + x^4 + 1. It mimics the per-core hardware
// PRNG of TrueNorth. Period is 65535; state 0 is a fixed point and is remapped
// on construction.
type LFSR16 struct {
	state uint16
}

// NewLFSR16 returns an LFSR seeded from the low bits of seed (0 is remapped).
func NewLFSR16(seed uint64) *LFSR16 {
	s := uint16(SplitMix64(seed))
	if s == 0 {
		s = 0xACE1
	}
	return &LFSR16{state: s}
}

// Step advances one bit and returns it.
func (l *LFSR16) Step() uint16 {
	s := l.state
	bit := (s ^ (s >> 1) ^ (s >> 3) ^ (s >> 12)) & 1
	l.state = s>>1 | bit<<15
	return bit
}

// Uint32 assembles 32 successive LFSR bits (MSB first) so that LFSR16
// satisfies Source. This is slow by design: it reflects serial hardware bit
// generation.
func (l *LFSR16) Uint32() uint32 {
	var v uint32
	for i := 0; i < 32; i++ {
		v = v<<1 | uint32(l.Step())
	}
	return v
}

// Uint16 returns the current 16-bit state after advancing 16 bits, matching
// how the hardware exposes a fresh word per tick.
func (l *LFSR16) Uint16() uint16 {
	for i := 0; i < 16; i++ {
		l.Step()
	}
	return l.state
}

// Float64 draws a uniform float in [0,1) from src using 53 random bits.
func Float64(src Source) float64 {
	hi := uint64(src.Uint32())
	lo := uint64(src.Uint32())
	return float64((hi<<21^lo>>11)&((1<<53)-1)) / (1 << 53)
}

// Bernoulli returns true with probability p. Values p<=0 never fire and
// p>=1 always fire, so callers may pass unclamped probabilities.
func Bernoulli(src Source, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	// Compare against a 32-bit threshold; bias is < 2^-32 which is far below
	// the Monte-Carlo noise floor of every experiment in the paper.
	return src.Uint32() < uint32(p*(1<<32))
}

// Intn returns a uniform integer in [0,n). n must be positive.
func Intn(src Source, n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint32(n)
	threshold := -bound % bound
	for {
		r := src.Uint32()
		m := uint64(r) * uint64(bound)
		if uint32(m) >= threshold {
			return int(m >> 32)
		}
	}
}

// Normal draws a standard normal variate using the Box-Muller transform.
func Normal(src Source) float64 {
	for {
		u := Float64(src)
		if u == 0 {
			continue
		}
		v := Float64(src)
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Perm returns a random permutation of [0,n) using Fisher-Yates.
func Perm(src Source, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := Intn(src, i+1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes idx in place.
func Shuffle(src Source, idx []int) {
	for i := len(idx) - 1; i > 0; i-- {
		j := Intn(src, i+1)
		idx[i], idx[j] = idx[j], idx[i]
	}
}
