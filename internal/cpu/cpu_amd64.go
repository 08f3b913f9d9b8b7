//go:build !purego

package cpu

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0, the state components the OS saves.
func xgetbv() uint32

func init() {
	const popcnt, osxsave = 1 << 23, 1 << 27
	const state = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7 // SSE, AVX, opmask, both ZMM halves
	const bmi2, avx512f, avx512dq = 1 << 8, 1 << 16, 1 << 17
	const avx512cd, avx512bw = 1 << 28, 1 << 30            // CPUID.(7,0):EBX
	const vbmi, vbmi2, vpopcntdq = 1 << 1, 1 << 6, 1 << 14 // CPUID.(7,0):ECX
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	if maxLeaf < 7 || ecx1&(popcnt|osxsave) != popcnt|osxsave || xgetbv()&state != state {
		return
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	AVX512 = ebx7&(bmi2|avx512f|avx512dq) == bmi2|avx512f|avx512dq
	AVX512VPOPCNTDQ = AVX512 && ecx7&vpopcntdq != 0
	AVX512VBMI2 = AVX512 && ebx7&(avx512cd|avx512bw) == avx512cd|avx512bw && ecx7&(vbmi|vbmi2) == vbmi|vbmi2
}
