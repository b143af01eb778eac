#include "textflag.h"

// func accum4(acc, r0, r1, r2, r3 []float32, x0, x1, x2, x3 float32)
//
// Eight floats per iteration in two independent accumulators (X4, X5), then a
// scalar tail (MULSS/ADDSS) for len(acc) % 8. Loads and stores are unaligned
// (MOVUPS): a mirror row starts wherever j·Rows floats puts it.
TEXT ·accum4(SB), NOSPLIT, $0-136
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ r0_base+24(FP), R8
	MOVQ r1_base+48(FP), R9
	MOVQ r2_base+72(FP), R10
	MOVQ r3_base+96(FP), R11
	MOVSS x0+120(FP), X0
	SHUFPS $0, X0, X0
	MOVSS x1+124(FP), X1
	SHUFPS $0, X1, X1
	MOVSS x2+128(FP), X2
	SHUFPS $0, X2, X2
	MOVSS x3+132(FP), X3
	SHUFPS $0, X3, X3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX

body:
	CMPQ AX, DX
	JGE  tail
	MOVUPS (DI)(AX*4), X4
	MOVUPS 16(DI)(AX*4), X5
	MOVUPS (R8)(AX*4), X6
	MOVUPS 16(R8)(AX*4), X7
	MULPS X0, X6
	MULPS X0, X7
	ADDPS X6, X4
	ADDPS X7, X5
	MOVUPS (R9)(AX*4), X8
	MOVUPS 16(R9)(AX*4), X9
	MULPS X1, X8
	MULPS X1, X9
	ADDPS X8, X4
	ADDPS X9, X5
	MOVUPS (R10)(AX*4), X10
	MOVUPS 16(R10)(AX*4), X11
	MULPS X2, X10
	MULPS X2, X11
	ADDPS X10, X4
	ADDPS X11, X5
	MOVUPS (R11)(AX*4), X12
	MOVUPS 16(R11)(AX*4), X13
	MULPS X3, X12
	MULPS X3, X13
	ADDPS X12, X4
	ADDPS X13, X5
	MOVUPS X4, (DI)(AX*4)
	MOVUPS X5, 16(DI)(AX*4)
	ADDQ $8, AX
	JMP  body

tail:
	CMPQ AX, CX
	JGE  done
	MOVSS (DI)(AX*4), X4
	MOVSS (R8)(AX*4), X6
	MULSS X0, X6
	ADDSS X6, X4
	MOVSS (R9)(AX*4), X8
	MULSS X1, X8
	ADDSS X8, X4
	MOVSS (R10)(AX*4), X10
	MULSS X2, X10
	ADDSS X10, X4
	MOVSS (R11)(AX*4), X12
	MULSS X3, X12
	ADDSS X12, X4
	MOVSS X4, (DI)(AX*4)
	INCQ AX
	JMP  tail

done:
	RET
