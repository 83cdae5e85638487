package cpu

func init() {
	const (
		osxsave, avx      = 1 << 27, 1 << 28 // CPUID.1:ECX
		avx512f, avx512vl = 1 << 16, 1 << 31 // CPUID.7:EBX
		avx512vpopcntdq   = 1 << 14          // CPUID.7:ECX
		// XCR0: SSE and AVX state; plus opmask, ZMM0-15 upper halves and
		// ZMM16-31.
		xcrYMM, xcrZMM = 0x06, 0xE6
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 {
		return
	}
	xcr0, _ := xgetbv()
	X86.HasAVX = ecx1&avx != 0 && xcr0&xcrYMM == xcrYMM
	if maxLeaf >= 7 {
		_, ebx7, ecx7, _ := cpuid(7, 0)
		X86.HasAVX512VPOPCNTDQ = ebx7&avx512f != 0 && ebx7&avx512vl != 0 &&
			ecx7&avx512vpopcntdq != 0 && xcr0&xcrZMM == xcrZMM
	}
}

// cpuid executes CPUID with EAX=leaf and ECX=sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0; call it only when CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)
