//go:build !purego

#include "textflag.h"

// func gatherXorAVX512(dst, ows, src []uint64, n uint64, idx []uint64) (blocks int, ones uint64)
TEXT ·gatherXorAVX512(SB), NOSPLIT, $0-120
	MOVQ dst_base+0(FP), DI
	MOVQ ows_base+24(FP), R8
	MOVQ ows_len+32(FP), R11
	MOVQ src_base+48(FP), DX
	VPBROADCASTQ n+72(FP), Z8
	MOVQ idx_base+80(FP), SI
	MOVQ $63, AX
	VPBROADCASTQ AX, Z9
	MOVQ $1, AX
	VPBROADCASTQ AX, Z7
	XORQ R10, R10
	XORQ R12, R12
	TESTQ R11, R11
	JZ   done

block:
	XORQ   BX, BX
	XORQ   CX, CX
	KXNORB K7, K7, K7

	// Eight indices a step: K1 marks those below n, the only lanes loaded,
	// and K7 keeps whether all of the block's were. Bit CX+i of the block's
	// word BX is bit idx[i] & 63 of src word idx[i] >> 6, tested into K2.
group:
	VMOVDQU64  (SI), Z1
	VPCMPUQ    $1, Z8, Z1, K1
	KANDB      K1, K7, K7
	VPSRLQ     $6, Z1, Z2
	VPANDQ     Z9, Z1, Z1
	VPXORQ     Z3, Z3, Z3
	VPGATHERQQ (DX)(Z2*8), K1, Z3
	VPSRLVQ    Z1, Z3, Z3
	VPTESTMQ   Z7, Z3, K2
	KMOVB      K2, AX
	SHLXQ      CX, AX, AX
	ORQ        AX, BX
	ADDQ       $64, SI
	ADDQ       $8, CX
	CMPQ       CX, $64
	JNE        group

	// An index ≥ n leaves this block to the Go loop, which reports it.
	KORTESTB K7, K7
	JCC      done
	MOVQ     (R8)(R10*8), AX
	XORQ     BX, AX
	POPCNTQ  AX, AX
	ADDQ     AX, R12
	TESTQ    DI, DI
	JZ       next
	MOVQ     BX, (DI)(R10*8)

next:
	INCQ R10
	CMPQ R10, R11
	JNE  block

done:
	MOVQ R10, blocks+104(FP)
	MOVQ R12, ones+112(FP)
	VZEROUPPER
	RET

// func xorCountAVX512(a, b []uint64) (words int, ones uint64)
TEXT ·xorCountAVX512(SB), NOSPLIT, $0-64
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	ANDQ   $-8, CX
	XORQ   AX, AX
	VPXORQ Z0, Z0, Z0
	TESTQ  CX, CX
	JZ     sum

	// Eight words a step: Z0's lane i sums popcount(a[j] ^ b[j]) over the
	// words j ≡ i mod 8.
words:
	VMOVDQU64 (SI)(AX*8), Z1
	VPXORQ    (DI)(AX*8), Z1, Z1
	VPOPCNTQ  Z1, Z1
	VPADDQ    Z1, Z0, Z0
	ADDQ      $8, AX
	CMPQ      AX, CX
	JNE       words

	// Fold the eight lanes: 8 → 4 → 2 → 1.
sum:
	VEXTRACTI64X4 $1, Z0, Y1
	VPADDQ        Y1, Y0, Y0
	VEXTRACTI128  $1, Y0, X1
	VPADDQ        X1, X0, X0
	VPSHUFD       $0x4e, X0, X1
	VPADDQ        X1, X0, X0
	VMOVQ         X0, DX
	MOVQ          CX, words+48(FP)
	MOVQ          DX, ones+56(FP)
	VZEROUPPER
	RET
