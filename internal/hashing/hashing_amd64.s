//go:build !purego

#include "textflag.h"

// HASH64M(s, sm, x, h) leaves in h Hash64(x, s) (hashing.go) of each lane,
// given sm = s·0x9e3779b97f4a7c15, the product that does not depend on the
// key; s and x are kept, sm too unless it is h. Z12 and Z13 hold the other
// two multipliers; Z2 is scratch.
#define HASH64M(s, sm, x, h) \
	VPXORQ  x, sm, h;   \
	VPSRLQ  $33, h, Z2; \
	VPXORQ  Z2, h, h;   \
	VPMULLQ Z12, h, h;  \
	VPXORQ  s, h, h;    \
	VPSRLQ  $33, h, Z2; \
	VPXORQ  Z2, h, h;   \
	VPMULLQ Z13, h, h;  \
	VPSRLQ  $33, h, Z2; \
	VPXORQ  Z2, h, h

// HASH64(s, x, h) is HASH64M with the seed's product taken first, from Z11.
#define HASH64(s, x, h) \
	VPMULLQ Z11, s, h; \
	HASH64M(s, h, x, h)

// REDUCE32(n, h) sets h to Reduce(h, n) for n < 2³² in every lane of n:
// hi64(h·n) = ((h>>32)·n + ((h mod 2³²)·n >> 32)) >> 32, and the sum is
// below 2⁶⁴. Z2 is scratch.
#define REDUCE32(n, h) \
	VPSRLQ   $32, h, Z2; \
	VPMULUDQ n, Z2, Z2;  \
	VPMULUDQ n, h, h;    \
	VPSRLQ   $32, h, h;  \
	VPADDQ   Z2, h, h;   \
	VPSRLQ   $32, h, h

// POW2SHIFT(r, z): for r = n = 2^b, Reduce(h, n) = hi64(h·n) = h >> (64-b);
// z gets 64-b in every lane, r is clobbered.
#define POW2SHIFT(r, z) \
	BSRQ r, r;  \
	NEGQ r;     \
	ADDQ $64, r; \
	VPBROADCASTQ r, z

#define MULTIPLIERS \
	MOVQ $0x9e3779b97f4a7c15, AX; \
	VPBROADCASTQ AX, Z11;         \
	MOVQ $0xff51afd7ed558ccd, AX; \
	VPBROADCASTQ AX, Z12;         \
	MOVQ $0xc4ceb9fe1a85ec53, AX; \
	VPBROADCASTQ AX, Z13

// func hashRangeAVX512(dst, seeds, mul []uint64, key, n uint64)
//
// Each step loads eight seeds and their products from the family's tables.
TEXT ·hashRangeAVX512(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	SHRQ $3, CX
	MOVQ seeds_base+24(FP), SI
	MOVQ mul_base+48(FP), R8
	VPBROADCASTQ key+72(FP), Z10
	VPBROADCASTQ n+80(FP), Z14
	MULTIPLIERS
	MOVQ n+80(FP), AX
	LEAQ -1(AX), BX
	TESTQ AX, BX
	JNZ  products
	POW2SHIFT(AX, Z9)

pow2:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (R8), Z3
	HASH64M(Z0, Z3, Z10, Z1)
	VPSRLVQ   Z9, Z1, Z1
	VMOVDQU64 Z1, (DI)
	ADDQ      $64, SI
	ADDQ      $64, R8
	ADDQ      $64, DI
	DECQ      CX
	JNZ       pow2
	VZEROUPPER
	RET

products:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (R8), Z3
	HASH64M(Z0, Z3, Z10, Z1)
	REDUCE32(Z14, Z1)
	VMOVDQU64 Z1, (DI)
	ADDQ      $64, SI
	ADDQ      $64, R8
	ADDQ      $64, DI
	DECQ      CX
	JNZ       products
	VZEROUPPER
	RET

DATA lanes<>+0(SB)/8, $0
DATA lanes<>+8(SB)/8, $1
DATA lanes<>+16(SB)/8, $2
DATA lanes<>+24(SB)/8, $3
DATA lanes<>+32(SB)/8, $4
DATA lanes<>+40(SB)/8, $5
DATA lanes<>+48(SB)/8, $6
DATA lanes<>+56(SB)/8, $7
GLOBL lanes<>(SB), RODATA|NOPTR, $64

// func edgePositionsAVX512(dst, pairs []uint64, stride int, seeds []uint64, psiSeed, k, userSeed, m uint64)
//
// Eight pairs a step. ψ = Reduce(Hash64(item, psiSeed), k); the classic
// family (seeds non-empty) then hashes the user under seeds[ψ], the fast one
// (seeds empty) expands Hash64(user, userSeed) as PositionFromState does.
// Both end in the reduction onto m: a shift for m = 2^b, else REDUCE32.
// psiSeed and userSeed are the same in every lane, so their products with
// 0x9e3779b97f4a7c15 are taken once, before the loop (Z24, Z25). The
// fast family's word is first shifted left by Z19 — 64-b, or 32 — since
// (w << (64-b)) >> (64-b) = w mod 2^b and hi64((w<<32)·m) = (uint32(w)·m) >> 32.
TEXT ·edgePositionsAVX512(SB), NOSPLIT, $0-112
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	SHRQ $3, CX
	MOVQ pairs_base+24(FP), SI
	MOVQ stride+48(FP), AX
	VPBROADCASTQ AX, Z20
	VPMULLQ lanes<>(SB), Z20, Z20 // word offsets of the eight users
	SHLQ $6, AX
	MOVQ AX, R10                  // bytes from one step's pairs to the next's
	MOVQ seeds_base+56(FP), R8
	MOVQ seeds_len+64(FP), R9
	VPBROADCASTQ psiSeed+80(FP), Z21
	VPBROADCASTQ k+88(FP), Z22
	VPBROADCASTQ userSeed+96(FP), Z23
	VPBROADCASTQ m+104(FP), Z14
	MULTIPLIERS
	VPMULLQ Z11, Z21, Z24
	VPMULLQ Z11, Z23, Z25
	MOVQ $0xbf58476d1ce4e5b9, AX
	VPBROADCASTQ AX, Z16
	MOVQ $0x94d049bb133111eb, AX
	VPBROADCASTQ AX, Z17
	MOVQ $1, AX
	VPBROADCASTQ AX, Z18
	MOVQ $32, BX
	XORQ DX, DX                   // DX: m is a power of two
	MOVQ m+104(FP), AX
	LEAQ -1(AX), R11
	TESTQ AX, R11
	JNZ  shift
	INCQ DX
	POW2SHIFT(AX, Z9)
	MOVQ AX, BX

shift:
	VPBROADCASTQ BX, Z19

edge:
	KXNORB     K1, K1, K1
	VPGATHERQQ (SI)(Z20*8), K1, Z3
	KXNORB     K1, K1, K1
	VPGATHERQQ 8(SI)(Z20*8), K1, Z4
	HASH64M(Z21, Z24, Z4, Z5)
	REDUCE32(Z22, Z5)
	TESTQ      R9, R9
	JZ         fast
	KXNORB     K1, K1, K1
	VPGATHERQQ (R8)(Z5*8), K1, Z0
	HASH64(Z0, Z3, Z1)
	JMP        reduce

	// w = Mix64(Hash64(user, userSeed) + (ψ>>1 + 1)·γ), >> 32 for odd ψ.
fast:
	HASH64M(Z23, Z25, Z3, Z1)
	VPSRLQ  $1, Z5, Z6
	VPADDQ  Z18, Z6, Z6
	VPMULLQ Z11, Z6, Z6
	VPADDQ  Z6, Z1, Z1
	VPSRLQ  $30, Z1, Z2
	VPXORQ  Z2, Z1, Z1
	VPMULLQ Z16, Z1, Z1
	VPSRLQ  $27, Z1, Z2
	VPXORQ  Z2, Z1, Z1
	VPMULLQ Z17, Z1, Z1
	VPSRLQ  $31, Z1, Z2
	VPXORQ  Z2, Z1, Z1
	VPANDQ  Z18, Z5, Z6
	VPSLLQ  $5, Z6, Z6
	VPSRLVQ Z6, Z1, Z1
	VPSLLVQ Z19, Z1, Z1

reduce:
	TESTQ   DX, DX
	JZ      products
	VPSRLVQ Z9, Z1, Z1
	JMP     store

products:
	REDUCE32(Z14, Z1)

store:
	VMOVDQU64 Z1, (DI)
	ADDQ      $64, DI
	ADDQ      R10, SI
	DECQ      CX
	JNZ       edge
	VZEROUPPER
	RET

// func usersToRangeAVX512(dst []uint32, pairs []uint64, stride int, seed, n uint64)
//
// Eight users a step, pairs[i·stride] each: dst[i] = Reduce(Hash64(user,
// seed), n), by REDUCE32 (n < 2³²), stored as eight dwords.
TEXT ·usersToRangeAVX512(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	SHRQ $3, CX
	MOVQ pairs_base+24(FP), SI
	MOVQ stride+48(FP), AX
	VPBROADCASTQ AX, Z20
	VPMULLQ lanes<>(SB), Z20, Z20 // word offsets of the eight users
	SHLQ $6, AX
	MOVQ AX, R10                  // bytes from one step's users to the next's
	VPBROADCASTQ seed+56(FP), Z21
	VPBROADCASTQ n+64(FP), Z14
	MULTIPLIERS
	VPMULLQ Z11, Z21, Z24 // the seed's product, the same in every lane

user:
	KXNORB     K1, K1, K1
	VPGATHERQQ (SI)(Z20*8), K1, Z3
	HASH64M(Z21, Z24, Z3, Z1)
	REDUCE32(Z14, Z1)
	VPMOVQD    Z1, (DI)
	ADDQ       $32, DI
	ADDQ       R10, SI
	DECQ       CX
	JNZ        user
	VZEROUPPER
	RET

// HASHAT(off, s, sm, h) loads the seeds and products off bytes into the
// step's members (SI, R9) and leaves their hashes in h.
#define HASHAT(off, s, sm, h) \
	VMOVDQU64 off(SI), s;  \
	VMOVDQU64 off(R9), sm; \
	HASH64M(s, sm, Z10, h)

// BITAT(p, w, g, k) sets k to bit p&63 of word p>>6 of DX, lane by lane:
// w and g are scratch, p keeps p&63. The zeroed g keeps the gather off the
// last one into it.
#define BITAT(p, w, g, k) \
	VPSRLQ     $6, p, w;        \
	VPANDQ     Z8, p, p;        \
	VPXORQ     g, g, g;         \
	KXNORB     k, k, k;         \
	VPGATHERQQ (DX)(w*8), k, g; \
	VPSRLVQ    p, g, g;         \
	VPTESTMQ   Z7, g, k

// func gatherXorAVX512(dst, ows, seeds, mul, words []uint64, key, n uint64) (ones uint64)
//
// One 64-member block of the family a word: 32 members a step, four groups
// of eight, each hashed as hashRangeAVX512 hashes it and reduced onto n,
// then gathered from words and tested into the block's word BX (bit CX+i
// of it is member i's bit) — no position is stored. Four groups in flight
// keep more gathers outstanding than two. Reduce puts every position below
// n, and words holds n bits, so no lane is masked. Each block is counted
// against ows before it is stored, so dst may be ows.
TEXT ·gatherXorAVX512(SB), NOSPLIT, $0-144
	MOVQ dst_base+0(FP), DI
	MOVQ ows_base+24(FP), R8
	MOVQ ows_len+32(FP), R11
	MOVQ seeds_base+48(FP), SI
	MOVQ mul_base+72(FP), R9
	MOVQ words_base+96(FP), DX
	VPBROADCASTQ key+120(FP), Z10
	VPBROADCASTQ n+128(FP), Z14
	MULTIPLIERS
	MOVQ $63, AX
	VPBROADCASTQ AX, Z8
	MOVQ $1, AX
	VPBROADCASTQ AX, Z7
	XORQ R10, R10
	XORQ R12, R12
	XORQ R13, R13                 // R13: n is a power of two
	MOVQ n+128(FP), AX
	LEAQ -1(AX), BX
	TESTQ AX, BX
	JNZ  block
	INCQ R13
	POW2SHIFT(AX, Z9)

block:
	XORQ BX, BX
	XORQ CX, CX

step:
	HASHAT(0, Z0, Z3, Z1)
	HASHAT(64, Z16, Z17, Z18)
	HASHAT(128, Z21, Z22, Z23)
	HASHAT(192, Z24, Z25, Z26)
	TESTQ   R13, R13
	JZ      products
	VPSRLVQ Z9, Z1, Z1
	VPSRLVQ Z9, Z18, Z18
	VPSRLVQ Z9, Z23, Z23
	VPSRLVQ Z9, Z26, Z26
	JMP     gather

products:
	REDUCE32(Z14, Z1)
	REDUCE32(Z14, Z18)
	REDUCE32(Z14, Z23)
	REDUCE32(Z14, Z26)

gather:
	BITAT(Z1, Z4, Z5, K1)
	BITAT(Z18, Z19, Z20, K2)
	BITAT(Z23, Z27, Z28, K3)
	BITAT(Z26, Z29, Z30, K4)
	KUNPCKBW K1, K2, K5 // the first group's bits low, the second's high
	KUNPCKBW K3, K4, K6
	KMOVW    K5, AX
	KMOVW    K6, R14
	SHLQ     $16, R14
	ORQ      R14, AX
	SHLXQ    CX, AX, AX
	ORQ      AX, BX
	ADDQ     $256, SI
	ADDQ     $256, R9
	ADDQ     $32, CX
	CMPQ     CX, $64
	JNE      step

	MOVQ    (R8)(R10*8), AX
	XORQ    BX, AX
	POPCNTQ AX, AX
	ADDQ    AX, R12
	TESTQ   DI, DI
	JZ      next
	MOVQ    BX, (DI)(R10*8)

next:
	INCQ R10
	CMPQ R10, R11
	JNE  block
	MOVQ R12, ones+136(FP)
	VZEROUPPER
	RET
