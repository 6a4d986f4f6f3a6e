#include "textflag.h"

// func cpuid(leaf uint32) (eax, ebx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-16
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	RET

// func mulADX(v, a, b *Element)
//
// The 512-bit product r0..r7 lives in R8..R15. Row 0 writes r0..r4;
// each later row i adds a_i * b into r_i..r_(i+4) with two carry
// chains, ADCX for the low halves of the products and ADOX for the high
// halves, and MULX, which leaves the flags alone, in between. The fold
// then follows mulGeneric: r0..r3 + 38 * r4..r7 into five limbs, the top
// one at most 38, then that limb times 38, then the last carry times
// 38. AX and BX hold a product's halves and CX stays zero.
TEXT ·mulADX(SB), NOSPLIT, $0-24
	MOVQ a+8(FP), DI
	MOVQ b+16(FP), SI

	// r0..r4 = a0 * b.
	MOVQ  (DI), DX
	MULXQ (SI), R8, R9
	MULXQ 8(SI), AX, R10
	ADDQ  AX, R9
	MULXQ 16(SI), AX, R11
	ADCQ  AX, R10
	MULXQ 24(SI), AX, R12
	ADCQ  AX, R11
	ADCQ  $0, R12

	// r1..r5 += a1 * b.
	MOVQ  8(DI), DX
	XORQ  CX, CX
	MULXQ (SI), AX, BX
	ADCXQ AX, R9
	ADOXQ BX, R10
	MULXQ 8(SI), AX, BX
	ADCXQ AX, R10
	ADOXQ BX, R11
	MULXQ 16(SI), AX, BX
	ADCXQ AX, R11
	ADOXQ BX, R12
	MULXQ 24(SI), AX, R13
	ADCXQ AX, R12
	ADOXQ CX, R13
	ADCXQ CX, R13

	// r2..r6 += a2 * b.
	MOVQ  16(DI), DX
	XORQ  CX, CX
	MULXQ (SI), AX, BX
	ADCXQ AX, R10
	ADOXQ BX, R11
	MULXQ 8(SI), AX, BX
	ADCXQ AX, R11
	ADOXQ BX, R12
	MULXQ 16(SI), AX, BX
	ADCXQ AX, R12
	ADOXQ BX, R13
	MULXQ 24(SI), AX, R14
	ADCXQ AX, R13
	ADOXQ CX, R14
	ADCXQ CX, R14

	// r3..r7 += a3 * b.
	MOVQ  24(DI), DX
	XORQ  CX, CX
	MULXQ (SI), AX, BX
	ADCXQ AX, R11
	ADOXQ BX, R12
	MULXQ 8(SI), AX, BX
	ADCXQ AX, R12
	ADOXQ BX, R13
	MULXQ 16(SI), AX, BX
	ADCXQ AX, R13
	ADOXQ BX, R14
	MULXQ 24(SI), AX, R15
	ADCXQ AX, R14
	ADOXQ CX, R15
	ADCXQ CX, R15

	// r0..r4 = r0..r3 + 38 * r4..r7.
	MOVQ  $38, DX
	XORQ  CX, CX
	MULXQ R12, AX, BX
	ADCXQ AX, R8
	ADOXQ BX, R9
	MULXQ R13, AX, BX
	ADCXQ AX, R9
	ADOXQ BX, R10
	MULXQ R14, AX, BX
	ADCXQ AX, R10
	ADOXQ BX, R11
	MULXQ R15, AX, R12
	ADCXQ AX, R11
	ADOXQ CX, R12
	ADCXQ CX, R12

	// Fold the top limb, then a carry exactly as Add does.
	IMUL3Q $38, R12, R12
	ADDQ   R12, R8
	ADCQ   $0, R9
	ADCQ   $0, R10
	ADCQ   $0, R11
	SBBQ   AX, AX
	ANDQ   $38, AX
	ADDQ   AX, R8

	MOVQ v+0(FP), DI
	MOVQ R8, (DI)
	MOVQ R9, 8(DI)
	MOVQ R10, 16(DI)
	MOVQ R11, 24(DI)
	RET
