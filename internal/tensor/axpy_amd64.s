#include "textflag.h"

// The 8-lane body of AxpyGather (gather.go): o[0:n] += Σ_t w[t]·row_t, t
// ascending, where row_t starts at base + (idx[t]−bias)·stride floats. The
// lanes go in panels of 64, then one each of 32, 16 and 8, each panel held in
// Y0–Y7 for the whole term list, so o is loaded and stored once per panel.
// Per lane the sequence is the pure-Go loop's IEEE-754 operations in its
// order: VMULPS rounds the product to float32, then VADDPS adds it. VFMADD
// would round once where the loop rounds twice, so it is never used. Loads
// and stores are unaligned (VMOVUPS; a VEX memory operand has no alignment
// requirement either), and VZEROUPPER precedes every return. Every term's
// row offset is checked against last, the highest offset at which n floats
// still fit in base, before the row is read: the row number must be unsigned
// ≤ last, its product with the stride must not overflow and must be ≤ last.
// The first panel meets every term, so the first that fails ends the call
// with o untouched and returns its index (terms when all passed). n ≥ 8, of
// which the leading multiple of 8 is done; terms ≥ 1.
//
// Register use: DI o, CX lanes left, SI w, DX idx, BX terms, R8 base (moved
// along with the panel), R9 bias, R10 stride, R11 last, AX the term, R12 its
// row offset in floats, Y15 its weight, Y8 the rounded product.

// ROW loads term AX's weight into Y15 and its row offset into R12, or jumps
// to bad when the row does not lie inside base.
#define ROW \
	MOVLQSX      (DX)(AX*4), R12; \
	SUBQ         R9, R12; \
	CMPQ         R12, R11; \
	JHI          bad; \
	IMULQ        R10, R12; \
	JOS          bad; \
	CMPQ         R12, R11; \
	JHI          bad; \
	VBROADCASTSS (SI)(AX*4), Y15

// TERM adds the rounded product of Y15 and the 8 floats at off past the
// term's row to acc.
#define TERM(off, acc) \
	VMULPS off(R8)(R12*4), Y15, Y8; \
	VADDPS Y8, acc, acc

// func axpyGatherAVX2(o *float32, n int, w *float32, idx *int32, terms int, base *float32, bias, stride, last int) (applied int)
TEXT ·axpyGatherAVX2(SB), NOSPLIT, $0-80
	MOVQ o+0(FP), DI
	MOVQ n+8(FP), CX
	ANDQ $~7, CX
	MOVQ w+16(FP), SI
	MOVQ idx+24(FP), DX
	MOVQ terms+32(FP), BX
	MOVQ base+40(FP), R8
	MOVQ bias+48(FP), R9
	MOVQ stride+56(FP), R10
	MOVQ last+64(FP), R11

panel64:
	CMPQ    CX, $64
	JLT     panel32
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	XORQ    AX, AX

terms64:
	ROW
	TERM(0, Y0)
	TERM(32, Y1)
	TERM(64, Y2)
	TERM(96, Y3)
	TERM(128, Y4)
	TERM(160, Y5)
	TERM(192, Y6)
	TERM(224, Y7)
	INCQ    AX
	CMPQ    AX, BX
	JLT     terms64
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, R8
	SUBQ    $64, CX
	JMP     panel64

panel32:
	CMPQ    CX, $32
	JLT     panel16
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	XORQ    AX, AX

terms32:
	ROW
	TERM(0, Y0)
	TERM(32, Y1)
	TERM(64, Y2)
	TERM(96, Y3)
	INCQ    AX
	CMPQ    AX, BX
	JLT     terms32
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, R8
	SUBQ    $32, CX

panel16:
	CMPQ    CX, $16
	JLT     panel8
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	XORQ    AX, AX

terms16:
	ROW
	TERM(0, Y0)
	TERM(32, Y1)
	INCQ    AX
	CMPQ    AX, BX
	JLT     terms16
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, R8
	SUBQ    $16, CX

panel8:
	CMPQ    CX, $8
	JLT     done
	VMOVUPS 0(DI), Y0
	XORQ    AX, AX

terms8:
	ROW
	TERM(0, Y0)
	INCQ    AX
	CMPQ    AX, BX
	JLT     terms8
	VMOVUPS Y0, 0(DI)

done:
	VZEROUPPER
	MOVQ BX, applied+72(FP)
	RET

bad:
	VZEROUPPER
	MOVQ AX, applied+72(FP)
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
