// Package cpu reports, once at start-up, whether the processor and the OS run
// the AVX-512 bodies of the hashing kernels (the route's owner pass among them),
// the bitset gathers, the bitset XOR-popcount and the stream element codec.
package cpu

// AVX512: CPUID has AVX-512F, AVX-512DQ, BMI2 and POPCNT, and XGETBV shows the
// OS saving opmask and ZMM state. False on other targets and under -tags purego.
// The kernels read it on every call, so GoLoopsOnly can switch it off.
var AVX512 bool

// AVX512VPOPCNTDQ: AVX512 holds and CPUID also has AVX512_VPOPCNTDQ, the
// vector popcount the bitset XOR-popcount's body runs on. Read on every call.
var AVX512VPOPCNTDQ bool

// AVX512VBMI2: AVX512 holds and CPUID also has AVX512BW, AVX512CD,
// AVX512_VBMI and AVX512_VBMI2, the byte permutes, leading-zero counts and
// byte compression the element codec's bodies (internal/stream) run on. Read
// on every call.
var AVX512VBMI2 bool

// GoLoopsOnly turns every flag above off, so each kernel runs its Go loop, and
// returns what sets them back as they were. It is the one switch the kernel
// packages' tests, fuzzers and benchmarks hold the Go loops to the vector
// bodies' reference with; nothing that ships calls it.
func GoLoopsOnly() (restore func()) {
	avx512, vpopcntdq, vbmi2 := AVX512, AVX512VPOPCNTDQ, AVX512VBMI2
	AVX512, AVX512VPOPCNTDQ, AVX512VBMI2 = false, false, false
	return func() { AVX512, AVX512VPOPCNTDQ, AVX512VBMI2 = avx512, vpopcntdq, vbmi2 }
}
