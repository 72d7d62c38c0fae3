#include "textflag.h"

// The 8-lane bodies of Axpy4 and Axpy (matmul.go). Per lane they perform the
// scalar loop's IEEE-754 operations in its order: each product is rounded to
// float32 by VMULPS before VADDPS adds it, term 0 first. VFMADD would round
// once where the scalar loop rounds twice, so it is never used. Loads and
// stores are unaligned (VMOVUPS; a VEX memory operand has no alignment
// requirement either). n is a positive multiple of 8.

// func axpy4AVX2(o, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3 float32)
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-64
	MOVQ         o+0(FP), DI
	MOVQ         b0+8(FP), R8
	MOVQ         b1+16(FP), R9
	MOVQ         b2+24(FP), R10
	MOVQ         b3+32(FP), R11
	MOVQ         n+40(FP), CX
	VBROADCASTSS a0+48(FP), Y4
	VBROADCASTSS a1+52(FP), Y5
	VBROADCASTSS a2+56(FP), Y6
	VBROADCASTSS a3+60(FP), Y7
	SHLQ         $2, CX // bytes
	XORQ         AX, AX

loop4:
	VMOVUPS (DI)(AX*1), Y0
	VMULPS  (R8)(AX*1), Y4, Y1
	VMULPS  (R9)(AX*1), Y5, Y2
	VMULPS  (R10)(AX*1), Y6, Y3
	VMULPS  (R11)(AX*1), Y7, Y8
	VADDPS  Y1, Y0, Y0
	VADDPS  Y2, Y0, Y0
	VADDPS  Y3, Y0, Y0
	VADDPS  Y8, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     loop4
	VZEROUPPER
	RET

// func axpyAVX2(o, b *float32, n int, a float32)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-28
	MOVQ         o+0(FP), DI
	MOVQ         b+8(FP), R8
	MOVQ         n+16(FP), CX
	VBROADCASTSS a+24(FP), Y4
	SHLQ         $2, CX
	XORQ         AX, AX

loop1:
	VMULPS  (R8)(AX*1), Y4, Y1
	VADDPS  (DI)(AX*1), Y1, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     loop1
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
