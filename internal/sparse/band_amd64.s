#include "textflag.h"

// func bandMulChunks(vt *float64, off *int, w int, x, dst *float64, n8, n4 int)
//
// One ymm lane per row. Per entry k of a chunk: an unaligned load of the four
// (eight) x values the rows read at offset off[k], one VMULPD against the
// chunk-transposed values, one VADDPD into the lane accumulators. There is no
// fused multiply-add here on purpose: the portable loop rounds the product
// and then the sum, and every pinned trajectory holds those bits.
TEXT ·bandMulChunks(SB), NOSPLIT, $0-56
	MOVQ vt+0(FP), SI
	MOVQ off+8(FP), DI
	MOVQ w+16(FP), CX
	MOVQ x+24(FP), R8
	MOVQ dst+32(FP), R9
	MOVQ n8+40(FP), R10
	MOVQ n4+48(FP), R11
	TESTQ R10, R10
	JE   four

chunk8:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   AX, AX

entry8:
	MOVQ    (DI)(AX*8), DX
	VMOVUPD (R8)(DX*8), Y2
	VMOVUPD 32(R8)(DX*8), Y3
	VMULPD  (SI), Y2, Y2
	VMULPD  32(SI), Y3, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	ADDQ    $64, SI
	INCQ    AX
	CMPQ    AX, CX
	JLT     entry8
	VMOVUPD Y0, (R9)
	VMOVUPD Y1, 32(R9)
	ADDQ    $64, R8
	ADDQ    $64, R9
	DECQ    R10
	JNE     chunk8

four:
	TESTQ R11, R11
	JE    done
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX

entry4:
	MOVQ    (DI)(AX*8), DX
	VMOVUPD (R8)(DX*8), Y2
	VMULPD  (SI), Y2, Y2
	VADDPD  Y2, Y0, Y0
	ADDQ    $32, SI
	INCQ    AX
	CMPQ    AX, CX
	JLT     entry4
	VMOVUPD Y0, (R9)

done:
	VZEROUPPER
	RET

// func bandMulGroups(vt *float64, off *int, w int, x, dst *float64, n4, n2, n1 int)
//
// One ymm register per group of three rows, one lane per row, the fourth lane
// a zero pad that is never stored. Per entry k of a chunk: one VBROADCASTSD of
// the x value the group's rows share at offset off[k], one VMULPD against the
// group-transposed values, one VADDPD into the group's accumulator. As in
// bandMulChunks, multiply then add, never fused. Each group stores exactly
// three lanes (VMOVUPD of the low pair, VMOVSD of lane 2): the row after a
// group may belong to another row block.
TEXT ·bandMulGroups(SB), NOSPLIT, $0-64
	MOVQ vt+0(FP), SI
	MOVQ off+8(FP), DI
	MOVQ w+16(FP), CX
	MOVQ x+24(FP), R8
	MOVQ dst+32(FP), R9
	MOVQ n4+40(FP), R10
	MOVQ n2+48(FP), R11
	MOVQ n1+56(FP), R12
	TESTQ R10, R10
	JE   two

quad:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX

entry4:
	MOVQ         (DI)(AX*8), DX
	LEAQ         (R8)(DX*8), BX
	VBROADCASTSD (BX), Y4
	VBROADCASTSD 24(BX), Y5
	VBROADCASTSD 48(BX), Y6
	VBROADCASTSD 72(BX), Y7
	VMULPD       (SI), Y4, Y4
	VMULPD       32(SI), Y5, Y5
	VMULPD       64(SI), Y6, Y6
	VMULPD       96(SI), Y7, Y7
	VADDPD       Y4, Y0, Y0
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y2, Y2
	VADDPD       Y7, Y3, Y3
	ADDQ         $128, SI
	INCQ         AX
	CMPQ         AX, CX
	JLT          entry4
	VMOVUPD      X0, (R9)
	VEXTRACTF128 $1, Y0, X4
	VMOVSD       X4, 16(R9)
	VMOVUPD      X1, 24(R9)
	VEXTRACTF128 $1, Y1, X5
	VMOVSD       X5, 40(R9)
	VMOVUPD      X2, 48(R9)
	VEXTRACTF128 $1, Y2, X6
	VMOVSD       X6, 64(R9)
	VMOVUPD      X3, 72(R9)
	VEXTRACTF128 $1, Y3, X7
	VMOVSD       X7, 88(R9)
	ADDQ         $96, R8
	ADDQ         $96, R9
	DECQ         R10
	JNE          quad

two:
	TESTQ R11, R11
	JE    one
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   AX, AX

entry2:
	MOVQ         (DI)(AX*8), DX
	LEAQ         (R8)(DX*8), BX
	VBROADCASTSD (BX), Y4
	VBROADCASTSD 24(BX), Y5
	VMULPD       (SI), Y4, Y4
	VMULPD       32(SI), Y5, Y5
	VADDPD       Y4, Y0, Y0
	VADDPD       Y5, Y1, Y1
	ADDQ         $64, SI
	INCQ         AX
	CMPQ         AX, CX
	JLT          entry2
	VMOVUPD      X0, (R9)
	VEXTRACTF128 $1, Y0, X4
	VMOVSD       X4, 16(R9)
	VMOVUPD      X1, 24(R9)
	VEXTRACTF128 $1, Y1, X5
	VMOVSD       X5, 40(R9)
	ADDQ         $48, R8
	ADDQ         $48, R9

one:
	TESTQ R12, R12
	JE    done1
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX

entry1:
	MOVQ         (DI)(AX*8), DX
	VBROADCASTSD (R8)(DX*8), Y4
	VMULPD       (SI), Y4, Y4
	VADDPD       Y4, Y0, Y0
	ADDQ         $32, SI
	INCQ         AX
	CMPQ         AX, CX
	JLT          entry1
	VMOVUPD      X0, (R9)
	VEXTRACTF128 $1, Y0, X4
	VMOVSD       X4, 16(R9)

done1:
	VZEROUPPER
	RET

// func bandMulGather(vt *float64, off *int, w int, x, dst *float64, rows *int, n int)
//
// One ymm lane per row of a quad, the four rows anywhere in the block. Per
// entry k: four scalar loads of x[r_q+off[k]], assembled into one register
// (VMOVSD and VMOVHPD into each half, VINSERTF128 of the high half), one
// VMULPD against the quad-transposed values, one VADDPD into the lane
// accumulators. As in bandMulChunks, multiply then add, never fused. Each
// quad then scatters exactly its four lanes to dst[r_q].
TEXT ·bandMulGather(SB), NOSPLIT, $0-56
	MOVQ vt+0(FP), SI
	MOVQ x+24(FP), R8
	MOVQ dst+32(FP), R9
	MOVQ rows+40(FP), R10
	MOVQ n+48(FP), R11

quad:
	MOVQ   off+8(FP), DI
	MOVQ   w+16(FP), BX
	LEAQ   (DI)(BX*8), BX
	MOVQ   (R10), AX
	LEAQ   (R8)(AX*8), AX
	MOVQ   8(R10), CX
	LEAQ   (R8)(CX*8), CX
	MOVQ   16(R10), R12
	LEAQ   (R8)(R12*8), R12
	MOVQ   24(R10), R13
	LEAQ   (R8)(R13*8), R13
	VXORPD Y0, Y0, Y0

entry:
	MOVQ        (DI), DX
	VMOVSD      (AX)(DX*8), X1
	VMOVHPD     (CX)(DX*8), X1, X1
	VMOVSD      (R12)(DX*8), X2
	VMOVHPD     (R13)(DX*8), X2, X2
	VINSERTF128 $1, X2, Y1, Y1
	VMULPD      (SI), Y1, Y1
	VADDPD      Y1, Y0, Y0
	ADDQ        $32, SI
	ADDQ        $8, DI
	CMPQ        DI, BX
	JNE         entry
	MOVQ         (R10), AX
	VMOVSD       X0, (R9)(AX*8)
	MOVQ         8(R10), AX
	VMOVHPD      X0, (R9)(AX*8)
	VEXTRACTF128 $1, Y0, X1
	MOVQ         16(R10), AX
	VMOVSD       X1, (R9)(AX*8)
	MOVQ         24(R10), AX
	VMOVHPD      X1, (R9)(AX*8)
	ADDQ         $32, R10
	DECQ         R11
	JNE          quad
	VZEROUPPER
	RET
