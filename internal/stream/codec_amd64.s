//go:build !purego

#include "textflag.h"

// The element codec's AVX-512 bodies. Each takes whole groups of four edges —
// eight varints: user<<1|op, item, user<<1|op, … — and returns how far it
// got; the Go loops in codec.go finish the batch and own every error.

// Byte i holds i.
DATA iota<>+0(SB)/8, $0x0706050403020100
DATA iota<>+8(SB)/8, $0x0f0e0d0c0b0a0908
DATA iota<>+16(SB)/8, $0x1716151413121110
DATA iota<>+24(SB)/8, $0x1f1e1d1c1b1a1918
DATA iota<>+32(SB)/8, $0x2726252423222120
DATA iota<>+40(SB)/8, $0x2f2e2d2c2b2a2928
DATA iota<>+48(SB)/8, $0x3736353433323130
DATA iota<>+56(SB)/8, $0x3f3e3d3c3b3a3938
GLOBL iota<>(SB), RODATA|NOPTR, $64

// Byte z holds the uvarint length of a value with z leading zeros (z ≤ 63).
DATA lenTable<>+0(SB)/8, $0x090909090909090a
DATA lenTable<>+8(SB)/8, $0x0708080808080808
DATA lenTable<>+16(SB)/8, $0x0606070707070707
DATA lenTable<>+24(SB)/8, $0x0505050606060606
DATA lenTable<>+32(SB)/8, $0x0404040405050505
DATA lenTable<>+40(SB)/8, $0x0303030303040404
DATA lenTable<>+48(SB)/8, $0x0202020202020303
DATA lenTable<>+56(SB)/8, $0x0101010101010102
GLOBL lenTable<>(SB), RODATA|NOPTR, $64

// BYTES(b, z) broadcasts the qword b to every lane of z.
#define BYTES(b, z) MOVQ $b, AX; VPBROADCASTQ AX, z

// LANES(b, z) sets qword lane k of z to byte k of b.
#define LANES(b, z) MOVQ $b, AX; VMOVQ AX, X0; VPMOVZXBQ X0, z

// VALUES lays edges (SI)'s four users and items out in wire order in Z2 —
// u0 i0 u1 i1 u2 i2 u3 i3, Z31 holding those qwords' indices — and leaves
// the 96 bytes' last four qwords in Z1.
#define VALUES \
	VMOVDQU64 (SI), Z2; \
	VMOVDQU64 64(SI), Y1; \
	VPERMT2Q  Z1, Z31, Z2

// HALF spreads four of Z2's values over 16-byte lanes (perm: Z17 for values
// 0-3, Z16 for 4-7; lidx: Z15 or Z13, their lengths' bytes in Z4), encodes
// them and packs the bytes into z: n of them.
#define HALF(perm, lidx, z, n) \
	VPERMQ         Z2, perm, z; \
	VPSRLQ         $56, z, K7, z; \
	VPMULTISHIFTQB z, Z27, z; \
	VPANDQ         Z19, z, z; \
	VPERMB         Z4, lidx, Z6; \
	VPCMPUB        $1, Z6, Z21, K4; \
	VPCMPUB        $1, Z6, Z22, K5; \
	VPADDB         Z18, z, K4, z; \
	VPCOMPRESSB    z, K5, z; \
	KMOVQ          K5, n; \
	POPCNTQ        n, n

// func elementsLenAVX512(edges []Edge) (done, size int)
TEXT ·elementsLenAVX512(SB), NOSPLIT, $0-40
	MOVQ   edges_base+0(FP), SI
	MOVQ   edges_len+8(FP), CX
	XORQ   DX, DX
	VPXORQ Z10, Z10, Z10
	SHRQ   $2, CX
	JZ     lensum
	LANES(0x0a09070604030100, Z31)
	BYTES(1, Z28)
	VMOVDQU64 lenTable<>(SB), Z26
	MOVQ   $0x55, AX
	KMOVB  AX, K2
	MOVQ   $0x0101010101010101, AX
	KMOVQ  AX, K4

	// Four edges a step; a user above MaxUser leaves its group to the Go
	// loop, which names it. Z10's lanes sum the lengths.
lenloop:
	VALUES
	VPMOVQ2M Z2, K1
	KMOVB    K1, AX
	TESTQ    $0x55, AX
	JNZ      lensum
	VPSLLQ   $1, Z2, K2, Z2
	VPORQ    Z28, Z2, Z2
	VPLZCNTQ Z2, Z2
	VPERMB.Z Z26, Z2, K4, Z2
	VPADDQ   Z2, Z10, Z10
	ADDQ     $96, SI
	ADDQ     $4, DX
	DECQ     CX
	JNZ      lenloop

lensum:
	VEXTRACTI64X4 $1, Z10, Y11
	VPADDQ        Y11, Y10, Y10
	VEXTRACTI128  $1, Y10, X11
	VPADDQ        X11, X10, X10
	VPSHUFD       $0x4e, X10, X11
	VPADDQ        X11, X10, X10
	VMOVQ         X10, AX
	MOVQ          DX, done+24(FP)
	MOVQ          AX, size+32(FP)
	VZEROUPPER
	RET

// func encodeAVX512(dst []byte, edges []Edge) (done, n int)
TEXT ·encodeAVX512(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R8
	MOVQ edges_base+24(FP), SI
	MOVQ edges_len+32(FP), CX
	XORQ DX, DX
	XORQ R13, R13
	SHRQ $2, CX
	JZ   encdone
	LANES(0x0a09070604030100, Z31)
	LANES(0x0b0b080805050202, Z30)
	BYTES(0xff, Z29)
	BYTES(1, Z28)
	BYTES(0x312a231c150e0700, Z27)
	VMOVDQU64 lenTable<>(SB), Z26
	VMOVDQU64 iota<>(SB), Z25
	BYTES(0x0808080808080808, Z14)
	VPANDQ    Z14, Z25, Z24
	BYTES(0x0707070707070707, Z23)
	VPANDQ    Z23, Z25, Z23
	BYTES(0x0f0f0f0f0f0f0f0f, Z22)
	VPANDQ    Z22, Z25, Z22
	BYTES(0x0101010101010101, Z21)
	VPADDB    Z21, Z23, Z20
	VPADDB    Z21, Z22, Z21
	BYTES(0x7f7f7f7f7f7f7f7f, Z19)
	BYTES(0x8080808080808080, Z18)
	LANES(0x0303020201010000, Z17)
	LANES(0x0707060605050404, Z16)
	LANES(0x1818101008080000, Z15)
	VPSHUFB   Z24, Z15, Z15
	LANES(0x3838303028282020, Z13)
	VPSHUFB   Z24, Z13, Z13
	MOVQ      $0x55, AX
	KMOVB     AX, K2
	MOVQ      $0xaa, AX
	KMOVB     AX, K7
	MOVQ      $-1, R9

	// Z31/Z30 pick the values and the ops out of four edges, Z29-Z28 mask
	// an op byte and test it for Delete, Z27 spreads a qword's 7-bit groups
	// into its bytes, Z26 maps leading zeros to a length, Z24 broadcasts a
	// qword's byte 0 (byte i holds i&8), Z23/Z20 hold j and j+1 for byte j
	// of a qword and Z22/Z21 for byte j of a 16-byte lane, Z19/Z18 are the
	// payload and continuation bits, Z17/Z16 spread values 0-3 and 4-7
	// over 16-byte lanes and Z15/Z13 the lengths with them, Z14 is eight.
encloop:
	VALUES
	VMOVDQU64 (SI), Z0
	VPERMT2Q  Z1, Z30, Z0
	VPANDQ    Z29, Z0, Z0
	VPCMPUQ   $0, Z28, Z0, K2, K1
	VPSLLQ    $1, Z2, K2, Z2
	VPORQ     Z28, Z2, K1, Z2
	VPORQ     Z28, Z2, Z3
	VPLZCNTQ  Z3, Z3
	VPSHUFB   Z24, Z3, Z3
	VPERMB    Z26, Z3, Z4        // every byte of lane k: value k's length
	VPCMPUB   $6, Z14, Z4, K3
	KORTESTQ  K3, K3
	JNZ       enclong

	// Every value fits eight bytes: one lane each, one store of the group.
	VPMULTISHIFTQB Z2, Z27, Z5
	VPANDQ         Z19, Z5, Z5
	VPCMPUB        $1, Z4, Z20, K4 // j+1 < length: a continuation bit
	VPCMPUB        $1, Z4, Z23, K5 // j < length: a byte of the varint
	VPADDB         Z18, Z5, K4, Z5
	VPCOMPRESSB    Z5, K5, Z5
	KMOVQ          K5, BX
	POPCNTQ        BX, BX
	CMPQ           BX, R8
	JA             encdone
	BZHIQ          BX, R9, AX
	KMOVQ          AX, K6
	VMOVDQU8       Z5, K6, (DI)(DX*1)
	ADDQ           BX, DX
	SUBQ           BX, R8

encnext:
	ADDQ $96, SI
	ADDQ $4, R13
	DECQ CX
	JNZ  encloop

encdone:
	MOVQ R13, done+48(FP)
	MOVQ DX, n+56(FP)
	VZEROUPPER
	RET

	// A value of nine or ten bytes: sixteen-byte lanes, four values to a
	// store, the lane's second qword the value's bits 56 to 63.
enclong:
	HALF(Z17, Z15, Z5, BX)
	HALF(Z16, Z13, Z7, R10)
	LEAQ           (BX)(R10*1), R11
	CMPQ           R11, R8
	JA             encdone
	BZHIQ          BX, R9, AX
	KMOVQ          AX, K6
	VMOVDQU8       Z5, K6, (DI)(DX*1)
	ADDQ           BX, DX
	BZHIQ          R10, R9, AX
	KMOVQ          AX, K6
	VMOVDQU8       Z7, K6, (DI)(DX*1)
	ADDQ           R10, DX
	SUBQ           R11, R8
	JMP            encnext

// func decodeAVX512(dst []Edge, data []byte) (done, at int)
TEXT ·decodeAVX512(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ data_base+24(FP), SI
	MOVQ data_len+32(FP), R8
	XORQ R13, R13
	XORQ DX, DX
	CMPQ CX, $4
	JLT  decdone
	VMOVDQU64 iota<>(SB), Z31
	VPSRLQ    $3, Z31, Z30
	BYTES(0x0707070707070707, Z29)
	VPANDQ    Z29, Z30, Z30
	VPANDQ    Z29, Z31, Z29
	BYTES(0x7f7f7f7f7f7f7f7f, Z28)
	BYTES(0x8001800180018001, Z27)
	BYTES(0x4000000140000001, Z26)
	BYTES(0x000000000fffffff, Z25)
	BYTES(1, Z24)
	LANES(0x05040a0302080100, Z23)
	LANES(0x000000000e07060c, Z22)
	BYTES(0x0808080808080808, Z21)
	VPADDB    Z21, Z29, Z20
	BYTES(0xfe00, Z19)
	MOVQ      $0x55, AX
	KMOVB     AX, K4

	// Z31 holds byte indices, Z30 byte i>>3 and Z29 i&7 (j), Z28 the payload
	// bits, Z27-Z25 close up a lane's 7-bit groups, Z24 is one, Z23/Z22 lay
	// four edges out, Z21 is eight, Z20 j+8, and Z19 the bits of a tenth byte
	// that overflow.
	//
	// Eight varints a step from a 64-byte window. Eight that do not end
	// inside it, a varint over ten bytes, a tenth byte above one, fewer than
	// 64 bytes or four edges left: the Go loop goes on from here.
decloop:
	MOVQ CX, AX
	SUBQ R13, AX
	CMPQ AX, $4
	JLT  decdone
	MOVQ R8, AX
	SUBQ DX, AX
	CMPQ AX, $64
	JLT  decdone
	VMOVDQU8 (SI)(DX*1), Z0
	VPMOVB2M Z0, K1
	KMOVQ    K1, BX
	NOTQ     BX                    // the bytes that end a varint
	MOVQ     $0x80, AX
	PDEPQ    BX, AX, R12           // the eighth of them
	TESTQ    R12, R12
	JZ       decdone

	// Where each of the eight ends and starts.
	BSFQ        R12, R12
	LEAQ        1(R12), AX
	BZHIQ       AX, BX, BX
	KMOVQ       BX, K1
	VPCOMPRESSB Z31, K1, Z1
	VMOVQ       X1, R10            // byte k: where varint k ends
	MOVQ        R10, R9
	SHLQ        $8, R9
	SUBQ        R9, R10
	INCQ        R10                // byte k: varint k's length
	MOVQ        $0x0101010101010100, AX
	ADDQ        AX, R9             // byte k: where it starts

	// A length byte plus 0x75 sets its top bit above ten, plus 0x77 above
	// eight.
	MOVQ       $0x8080808080808080, BX
	MOVQ       $0x7575757575757575, AX
	ADDQ       R10, AX
	TESTQ      BX, AX
	JNZ        decdone
	VMOVQ      R9, X2
	VMOVQ      R10, X3
	VPERMB     Z2, Z30, Z2
	VPADDB     Z29, Z2, Z2           // byte j of lane k: index of varint k's byte j
	VPERMB     Z3, Z30, Z3           // every byte of lane k: varint k's length
	VPCMPUB    $1, Z3, Z29, K2
	VPERMB.Z   Z0, Z2, K2, Z6
	VPANDQ     Z28, Z6, Z6
	VPMADDUBSW Z6, Z27, Z6           // 14-bit words
	VPMADDWD   Z26, Z6, Z6           // 28-bit dwords
	VPSRLQ     $4, Z6, Z5
	VPTERNLOGQ $0xd8, Z25, Z6, Z5    // 56-bit qwords
	MOVQ       $0x7777777777777777, AX
	ADDQ       R10, AX
	TESTQ      BX, AX
	JZ         edges

	// A nine- or ten-byte varint: its bytes 8 and 9 carry bits 56 to 63.
	VPADDB     Z21, Z2, Z2
	VPCMPUB    $1, Z3, Z20, K2
	VPERMB.Z   Z0, Z2, K2, Z6
	VPTESTMQ   Z19, Z6, K2
	KORTESTB   K2, K2
	JNZ        decdone
	VPANDQ     Z28, Z6, Z7
	VPSLLQ     $56, Z7, Z7
	VPSRLQ     $8, Z6, Z6
	VPSLLQ     $63, Z6, Z6
	VPTERNLOGQ $0xfe, Z6, Z7, Z5

	// User lanes split into user and op; Z7 gets edges 0-1 and edge 2's
	// user and item, Z5 the rest.
edges:
	VPANDQ    Z24, Z5, Z6
	VPSRLQ    $1, Z5, K4, Z5
	VMOVDQA64 Z5, Z7
	VPERMT2Q  Z6, Z23, Z7
	LEAQ      1(DX)(R12*1), DX
	VPERMT2Q  Z6, Z22, Z5
	VMOVDQU64 Z7, (DI)
	VMOVDQU64 Y5, 64(DI)
	ADDQ      $96, DI
	ADDQ      $4, R13
	JMP       decloop

decdone:
	MOVQ R13, done+48(FP)
	MOVQ DX, at+56(FP)
	VZEROUPPER
	RET
