package tensor

import "unsafe"

// haveAVX2 says whether AxpyGather runs the 8-lane body of axpy_amd64.s; set
// once at start-up (tests flip it to run both loops).
var haveAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (CPUID.1:ECX OSXSAVE and AVX, XCR0 bits
// 1 and 2, CPUID.7.0:EBX AVX2).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func axpyGatherAVX2(o *float32, n int, w *float32, idx *int32, terms int, base *float32, bias, stride, last int) (applied int)

// axpyGatherLanes runs AxpyGather over the leading multiple of eight
// elements of o (it has at least eight) in the vector body. It returns how
// many terms it applied: all of w's (at least one), or the index of the
// first whose row would start past offset last ≥ 0 of base, in which case o
// is untouched. The slices are non-empty, so SliceData is their first
// element, without the bounds checks that would keep this from inlining.
func axpyGatherLanes(o, w []float32, idx []int32, base []float32, bias, stride, last int) int {
	return axpyGatherAVX2(unsafe.SliceData(o), len(o), unsafe.SliceData(w), unsafe.SliceData(idx), len(w), unsafe.SliceData(base), bias, stride, last)
}
