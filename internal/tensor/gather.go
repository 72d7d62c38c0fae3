package tensor

import (
	"fmt"
	"math/bits"
)

// AxpyGather is the one arithmetic loop under every product, dense and CSR:
// it adds to o the terms w[t]·base[(idx[t]−bias)·stride : +len(o)], t
// ascending, each product rounded to float32 before its add — per element
// the chain o[j] += float32(w[t]·row_t[j]), one term after another, for one
// load and store of o per call instead of one per term. A CSR product passes
// a row's own column and value sub-slices, the dense products a term list
// compacted on the stack; nothing is copied.
//
// On amd64 with AVX2 the leading multiple of eight elements run in the
// vector body (axpy_amd64.s), which keeps them in registers for the whole
// term list. The loop below is the rest: the tail, everything on other CPUs,
// and — with haveAVX2 off — the reference the vector body is tested against.
// It takes the terms four at a time, added left to right; its explicit
// conversions round each product before the add, so no compiler may fuse
// the pair on any GOARCH.
//
// AxpyGather checks its own inputs: it panics, instead of reading the row,
// on a term whose row does not lie wholly inside base, and on a stride below
// one or idx and w of different lengths. (o is then left part-way.)
func AxpyGather(o, w []float32, idx []int32, base []float32, bias, stride int) {
	if len(idx) != len(w) {
		panic(fmt.Sprintf("tensor: AxpyGather with %d weights and %d indices", len(w), len(idx)))
	}
	if len(o) == 0 || len(w) == 0 {
		return
	}
	if stride < 1 {
		panic(fmt.Sprintf("tensor: AxpyGather stride %d", stride))
	}
	// A row may start at any offset up to last.
	last := len(base) - len(o)
	if last < 0 {
		panic(badRow{idx[0], bias, len(o), len(base)})
	}
	if haveAVX2 && len(o) >= 8 {
		if t := axpyGatherLanes(o, w, idx, base, bias, stride, last); t < len(w) {
			panic(badRow{idx[t], bias, len(o), len(base)})
		}
		n := len(o) &^ 7
		if n == len(o) {
			return
		}
		o, base = o[n:], base[n:]
	}
	// The pure-Go loop: four terms per pass over o, then the up to three
	// left one at a time. base may start part-way into a row (the vector
	// body's tail), which shifts base and o by as much, so last stands.
	n := len(o)
	t := 0
	for ; t+4 <= len(w); t += 4 {
		a0, a1, a2, a3 := w[t], w[t+1], w[t+2], w[t+3]
		b0 := gatherRow(base, idx[t], bias, stride, last, n)
		b1 := gatherRow(base, idx[t+1], bias, stride, last, n)
		b2 := gatherRow(base, idx[t+2], bias, stride, last, n)
		b3 := gatherRow(base, idx[t+3], bias, stride, last, n)
		b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
		for j := range o {
			o[j] = o[j] + float32(a0*b0[j]) + float32(a1*b1[j]) + float32(a2*b2[j]) + float32(a3*b3[j])
		}
	}
	for ; t < len(w); t++ {
		a, b := w[t], gatherRow(base, idx[t], bias, stride, last, n)[:n]
		for j := range o {
			o[j] += float32(a * b[j])
		}
	}
}

// Kernel names the loop AxpyGather runs on this machine: "avx2" or "go".
func Kernel() string {
	if haveAVX2 {
		return "avx2"
	}
	return "go"
}

// gatherRow returns the n floats of base at row int(c)−bias, which must
// start at an offset no greater than last; Mul64 keeps a huge row number
// from wrapping round to one that does.
func gatherRow(base []float32, c int32, bias, stride, last, n int) []float32 {
	r := int(c) - bias
	hi, off := bits.Mul64(uint64(r), uint64(stride))
	if uint(r) > uint(last) || hi != 0 || off > uint64(last) {
		panic(badRow{c, bias, n, len(base)})
	}
	return base[off : int(off)+n]
}

// badRow is the panic of a term whose row lies outside the operand.
type badRow struct {
	c                int32
	bias, n, operand int
}

func (e badRow) Error() string {
	return fmt.Sprintf("tensor: AxpyGather reads row %d (index %d, bias %d) of %d floats past an operand of %d",
		int(e.c)-e.bias, e.c, e.bias, e.n, e.operand)
}
