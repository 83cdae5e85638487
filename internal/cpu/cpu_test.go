package cpu

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestFeaturesMatchProcCPUInfo checks the CPUID/XGETBV decoding against the
// flags Linux reports for the same CPU (the kernel clears a flag whose
// register state it does not save), and logs which kernel paths this host
// runs.
func TestFeaturesMatchProcCPUInfo(t *testing.T) {
	t.Logf("avx=%v avx512_vpopcntdq=%v", X86.HasAVX, X86.HasAVX512VPOPCNTDQ)
	if runtime.GOARCH != "amd64" {
		if X86.HasAVX || X86.HasAVX512VPOPCNTDQ {
			t.Fatalf("x86 features reported on %s: %+v", runtime.GOARCH, X86)
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo:", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	if want := flags["avx"]; X86.HasAVX != want {
		t.Errorf("HasAVX = %v, /proc/cpuinfo avx = %v", X86.HasAVX, want)
	}
	if want := flags["avx512f"] && flags["avx512vl"] && flags["avx512_vpopcntdq"]; X86.HasAVX512VPOPCNTDQ != want {
		t.Errorf("HasAVX512VPOPCNTDQ = %v, /proc/cpuinfo avx512f+avx512vl+avx512_vpopcntdq = %v", X86.HasAVX512VPOPCNTDQ, want)
	}
}
