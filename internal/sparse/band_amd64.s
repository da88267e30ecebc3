#include "textflag.h"

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // bit 27 OSXSAVE, bit 28 AVX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV               // XCR0 in DX:AX
	ANDL $6, AX          // bit 1 xmm state, bit 2 ymm state
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

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
