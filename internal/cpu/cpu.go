// Package cpu reports the x86 instruction-set extensions the vector kernels
// use, detected once at start-up. Every kernel package reads this one
// feature set and keeps its portable Go loop as the fallback and the
// reference; on other architectures every feature reads false.
package cpu

// X86 is the feature set of the running CPU and OS. A feature reads true
// only when the CPU has the instructions and the OS saves the register state
// they use across context switches.
var X86 struct {
	// HasAVX: AVX with YMM state enabled (CPUID.1:ECX.AVX and .OSXSAVE,
	// XCR0 bits 1-2). The trainer's spike lanes (internal/tensor) need it.
	HasAVX bool
	// HasAVX512VPOPCNTDQ: AVX512F, AVX512VL and AVX512_VPOPCNTDQ with
	// opmask and ZMM state enabled (CPUID.7:EBX bits 16 and 31, CPUID.7:ECX
	// bit 14, OSXSAVE, XCR0 bits 1-2 and 5-7). Two kernels need it: the
	// fast path's popcount-and-fire kernel (internal/deploy) and the chip's
	// crossbar-and-fire kernel (internal/truenorth).
	HasAVX512VPOPCNTDQ bool
}
