//go:build !purego

#include "textflag.h"

// HASH8 leaves in Z1 Hash64(key, seed) (hashing.go) of the eight seeds in Z0.
// Z10 holds the key, Z11–Z13 the three multipliers; Z2 is scratch.
#define HASH8 \
	VPMULLQ Z11, Z0, Z1; \
	VPXORQ  Z10, Z1, Z1; \
	VPSRLQ  $33, Z1, Z2; \
	VPXORQ  Z2, Z1, Z1;  \
	VPMULLQ Z12, Z1, Z1; \
	VPXORQ  Z0, Z1, Z1;  \
	VPSRLQ  $33, Z1, Z2; \
	VPXORQ  Z2, Z1, Z1;  \
	VPMULLQ Z13, Z1, Z1; \
	VPSRLQ  $33, Z1, Z2; \
	VPXORQ  Z2, Z1, Z1

// func hashRangeAVX512(dst, seeds []uint64, key, n uint64)
TEXT ·hashRangeAVX512(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	SHRQ $3, CX
	MOVQ seeds_base+24(FP), SI
	VPBROADCASTQ key+48(FP), Z10
	VPBROADCASTQ n+56(FP), Z14
	MOVQ $0x9e3779b97f4a7c15, AX
	VPBROADCASTQ AX, Z11
	MOVQ $0xff51afd7ed558ccd, AX
	VPBROADCASTQ AX, Z12
	MOVQ $0xc4ceb9fe1a85ec53, AX
	VPBROADCASTQ AX, Z13
	MOVQ n+56(FP), AX
	LEAQ -1(AX), BX
	TESTQ AX, BX
	JNZ  mul

	// n = 2^b: hi64(h·n) = h >> (64-b), and b is n's only set bit.
	BSRQ AX, AX
	NEGQ AX
	ADDQ $64, AX
	VPBROADCASTQ AX, Z9

pow2:
	VMOVDQU64 (SI), Z0
	HASH8
	VPSRLVQ   Z9, Z1, Z1
	VMOVDQU64 Z1, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	DECQ      CX
	JNZ       pow2
	VZEROUPPER
	RET

	// hi64(h·n) = ((h>>32)·n + ((h mod 2³²)·n >> 32)) >> 32 for n < 2³²;
	// the sum is below 2⁶⁴.
mul:
	VMOVDQU64 (SI), Z0
	HASH8
	VPSRLQ    $32, Z1, Z2
	VPMULUDQ  Z14, Z2, Z2
	VPMULUDQ  Z14, Z1, Z1
	VPSRLQ    $32, Z1, Z1
	VPADDQ    Z2, Z1, Z1
	VPSRLQ    $32, Z1, Z1
	VMOVDQU64 Z1, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	DECQ      CX
	JNZ       mul
	VZEROUPPER
	RET
