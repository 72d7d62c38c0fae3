package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelThreshold is the amount of scalar work (approximate multiply-adds)
// below which a kernel runs single-threaded; spawning goroutines for tiny
// products costs more than it saves.
const parallelThreshold = 32 * 1024

// gatherTerms is the longest term list a dense product hands AxpyGather in
// one call: the length of the stack arrays MatMul compacts a row's nonzero
// entries into, and of the ascending index MatMulT reads. A longer list is
// split into successive calls, which add the same terms in the same order.
const gatherTerms = 256

// nonzero is 0 for a zero of either sign and 1 for anything else, NaN
// included: what a compacting loop advances its term count by. It does not
// branch on a: at the densities of ÂX and of ReLU outputs that branch is a
// coin toss the predictor loses.
func nonzero(a float32) int {
	bits := math.Float32bits(a) << 1 // drops the sign: zero iff a == 0
	return int((bits | -bits) >> 31)
}

// matmulRows is how many rows of the left operand one unit of MatMul's
// parallel loop covers, and matmulL1 the bytes of the right operand those
// rows go through before moving on to its next rows: a right operand larger
// than that (256×64 floats is 64 KB) would otherwise stream from L2 once per
// row of the left.
const (
	matmulRows = 16
	matmulL1   = 24 * 1024
)

// MatMul returns m · n, parallelised over row bands when the product is
// large enough. out[i][j] is the float32 sum, in ascending k, of the rounded
// products m[i][k]·n[k][j] over the nonzero m[i][k].
func (m *Matrix) MatMul(n *Matrix) *Matrix {
	if m.Cols != n.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %dx%d · %dx%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	out := New(m.Rows, n.Cols)
	matmulInto(out, m, n, nil, m.Rows)
	return out
}

// MatMulRowsInto computes out[r] = m[r]·n for every r in rows and leaves out's
// other rows alone; the listed rows of out must be zero on entry. Each row
// runs the same matmulRange body as MatMul, so a listed row is bit-for-bit
// the row MatMul would have produced — the product restricted to a row
// subset costs only that subset's work.
func (m *Matrix) MatMulRowsInto(n, out *Matrix, rows []int32) {
	if m.Cols != n.Rows || out.Rows != m.Rows || out.Cols != n.Cols {
		panic(fmt.Sprintf("tensor: MatMulRowsInto %dx%d · %dx%d into %dx%d", m.Rows, m.Cols, n.Rows, n.Cols, out.Rows, out.Cols))
	}
	matmulInto(out, m, n, rows, len(rows))
}

// matmulInto runs matmulRange over count rows — all of m's, or those listed
// — in parallel units of matmulRows.
func matmulInto(out, m, n *Matrix, rows []int32, count int) {
	units := (count + matmulRows - 1) / matmulRows
	size := count * m.Cols * n.Cols
	if InlineRows(units, size) {
		matmulRange(out, m, n, rows, 0, count)
		return
	}
	parallelRows(units, size, func(lo, hi int) {
		matmulRange(out, m, n, rows, lo*matmulRows, min(hi*matmulRows, count))
	})
}

// matmulRange accumulates rows [lo,hi) of m·n into out, or rows rows[lo:hi]
// when a row list is given. Per output row and block of n it compacts the
// row's nonzero entries, ascending, into a term list on the stack and hands
// the list to AxpyGather, which holds the output row in registers for all of
// it; a zero entry (ÂX is a fifth nonzero, a ReLU output half) costs a store
// that the next entry overwrites. The inner index advances in blocks of n
// that fit L1, all rows of the range going through a block before the next,
// which leaves every output element its ascending order.
func matmulRange(out, m, n *Matrix, rows []int32, lo, hi int) {
	K, N := m.Cols, n.Cols
	kb := max(4, matmulL1/(4*max(N, 1)))
	var w [gatherTerms]float32
	var idx [gatherTerms]int32
	for k0 := 0; k0 < K; k0 += kb {
		k1 := min(k0+kb, K)
		for i := lo; i < hi; i++ {
			r := i
			if rows != nil {
				r = int(rows[i])
			}
			orow := out.Data[r*N : (r+1)*N]
			for c0 := k0; c0 < k1; c0 += gatherTerms {
				t := 0
				for k, a := range m.Data[r*K+c0 : r*K+min(c0+gatherTerms, k1)] {
					w[t], idx[t] = a, int32(c0+k)
					t += nonzero(a)
				}
				AxpyGather(orow, w[:t], idx[:t], n.Data, 0, N)
			}
		}
	}
}

// MatMulT returns m · nᵀ: out[i][j] is the float32 sum, in ascending k, of
// the rounded products m[i][k]·n[j][k], zero terms included. The right
// operand here is a weight matrix — small — so it is transposed once, and
// each output row is then one AxpyGather over m's row as it stands: the
// weights are the row, the indices 0…K−1, the rows those of the transpose.
func (m *Matrix) MatMulT(n *Matrix) *Matrix {
	if m.Cols != n.Cols {
		panic(fmt.Sprintf("tensor: MatMulT inner dimension mismatch %dx%d · (%dx%d)ᵀ", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	out := New(m.Rows, n.Rows)
	nt := n.T()
	if size := m.Rows * m.Cols * n.Rows; InlineRows(m.Rows, size) {
		matmulTRange(out, m, nt, 0, m.Rows)
	} else {
		parallelRows(m.Rows, size, func(lo, hi int) { matmulTRange(out, m, nt, lo, hi) })
	}
	return out
}

// ascending is the index list of a MatMulT term list: term t reads row t of
// the transposed weight from where the list starts.
var ascending = func() (a [gatherTerms]int32) {
	for t := range a {
		a[t] = int32(t)
	}
	return a
}()

// matmulTRange computes rows [lo,hi) of m·ntᵀ into out, nt the transposed
// right operand, in lists of at most gatherTerms consecutive k.
func matmulTRange(out, m, nt *Matrix, lo, hi int) {
	K, N := m.Cols, nt.Cols
	for i := lo; i < hi; i++ {
		orow := out.Data[i*N : (i+1)*N]
		for k0 := 0; k0 < K; k0 += gatherTerms {
			k1 := min(k0+gatherTerms, K)
			AxpyGather(orow, m.Data[i*K+k0:i*K+k1], ascending[:k1-k0], nt.Data[k0*N:], 0, N)
		}
	}
}

// tmatmulBand is how many columns of m one TMatMul band covers: one 64-byte
// cache line of each of m's rows. tmatmulChunk bounds how many rows of m a
// band collects terms from before applying them, so that a band's term lists
// fit on the stack: 8 bytes a term, 16 KiB in all.
const (
	tmatmulBand  = 16
	tmatmulChunk = 128
)

// tmatmulRows is the height of TMatMul's row chunks for an n of width N: the
// rows of n a chunk's term lists read, which every column of the band reads
// again, fit matmulL1.
func tmatmulRows(N int) int {
	return min(tmatmulChunk, max(1, matmulL1/(4*max(N, 1))))
}

// TMatMul returns mᵀ · n without materialising the transpose. The result is
// Cols(m) × Cols(n); used for weight gradients Y = Hᵀ(AG). out[c][j] is the
// float32 sum, in ascending r, of the rounded products m[r][c]·n[r][j] over
// the nonzero m[r][c].
//
// The product is parallelised over bands of output rows (columns of m); each
// worker owns a disjoint band so no synchronisation is needed. A band sweeps
// m and n top to bottom once, reading one cache line of each of m's rows. It
// goes in chunks of rows: per chunk, each column's nonzero entries are
// compacted into a term list, and each output row is then one AxpyGather
// over its column's list, loaded and stored once per chunk.
func (m *Matrix) TMatMul(n *Matrix) *Matrix {
	if m.Rows != n.Rows {
		panic(fmt.Sprintf("tensor: TMatMul inner dimension mismatch (%dx%d)ᵀ · %dx%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	out := New(m.Cols, n.Cols)
	C := m.Cols
	// Narrower bands only when m has too few columns to give every P one.
	procs := runtime.GOMAXPROCS(0)
	width := min(tmatmulBand, max(1, C/procs))
	bands := (C + width - 1) / width
	// A band runs the whole height of m, many times bandWork. On a single P it
	// therefore yields inside the sweep, after every chunk.
	yield := procs == 1
	if size := m.Rows * C * n.Cols; InlineRows(bands, size) {
		tmatmulBands(out, m, n, width, 0, bands, yield)
	} else {
		parallelRows(bands, size, func(lo, hi int) { tmatmulBands(out, m, n, width, lo, hi, yield) })
	}
	return out
}

// tmatmulBands accumulates bands [lo,hi) of mᵀ·n, width columns of m each,
// into out.
func tmatmulBands(out, m, n *Matrix, width, lo, hi int, yield bool) {
	C, N := m.Cols, n.Cols
	h := tmatmulRows(N)
	var w [tmatmulBand][tmatmulChunk]float32
	var idx [tmatmulBand][tmatmulChunk]int32
	for b := lo; b < hi; b++ {
		c0 := b * width
		c1 := min(c0+width, C)
		for r0 := 0; r0 < m.Rows; r0 += h {
			var count [tmatmulBand]int
			for r := r0; r < min(r0+h, m.Rows); r++ {
				for c, a := range m.Data[r*C+c0 : r*C+c1] {
					t := count[c]
					w[c][t], idx[c][t] = a, int32(r)
					count[c] = t + nonzero(a)
				}
			}
			for c := c0; c < c1; c++ {
				t := count[c-c0]
				AxpyGather(out.Data[c*N:(c+1)*N], w[c-c0][:t], idx[c-c0][:t], n.Data, 0, N)
			}
			if yield {
				runtime.Gosched()
			}
		}
	}
}

// bandWork bounds the scalar work one band covers (~tens of microseconds of
// arithmetic). Banding serves two purposes: on a multi-P runtime the bands
// are pulled off an atomic counter, so skewed row costs (power-law SpMM
// rows) balance across workers instead of stalling on the unluckiest static
// chunk; on a single-P runtime the kernel yields between bands, giving the
// scheduler a point to service expired timers and run ready goroutines. The
// comm/compute overlap pipeline depends on the latter — a ghost fetch
// completing mid-matmul must have its transport goroutine scheduled
// promptly, not after the whole kernel retires, or the wire time the
// pipeline is meant to hide reappears as join latency. Bands are
// row-disjoint, so any banding produces bit-identical results.
const bandWork = 16 * 1024

// ParallelRows splits [0,rows) across GOMAXPROCS workers when size (the
// approximate scalar work the whole loop performs, in multiply-add
// equivalents) crosses the parallel threshold; below it, work runs inline.
// work is called with disjoint half-open chunks [lo, hi) and must not touch
// state outside its chunk. Exported for sibling packages (compress, graph)
// that parallelise per-element loops with the same policy as the matmul
// kernels.
func ParallelRows(rows, size int, work func(lo, hi int)) {
	parallelRows(rows, size, work)
}

// InlineRows reports whether ParallelRows would run the loop inline (work
// below the parallel crossover). Allocation-free kernels check it first and
// call their loop body directly on the inline path: merely constructing the
// closure ParallelRows takes forces a heap allocation (the goroutine branch
// makes it escape), which would break their zero-allocs-per-op guarantee.
func InlineRows(rows, size int) bool {
	return size < parallelThreshold || rows < 2
}

// parallelRows splits [0,rows) across GOMAXPROCS workers when size (the
// approximate total scalar work) crosses parallelThreshold.
func parallelRows(rows, size int, work func(lo, hi int)) {
	if size < parallelThreshold || rows < 2 {
		work(0, rows)
		return
	}
	band := rows
	if perRow := (size + rows - 1) / rows; perRow > 0 {
		band = (bandWork + perRow - 1) / perRow
	}
	if band < 1 {
		band = 1
	}
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 {
		// Single P: run the bands inline, yielding between them so timer
		// and I/O goroutines (in-flight ghost exchanges, stragglers timing
		// out) are serviced mid-kernel instead of at the next park.
		for lo := 0; lo < rows; lo += band {
			work(lo, min(lo+band, rows))
			runtime.Gosched()
		}
		return
	}
	nBands := (rows + band - 1) / band
	if workers > nBands {
		workers = nBands
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= nBands {
					return
				}
				lo := b * band
				work(lo, min(lo+band, rows))
			}
		}()
	}
	wg.Wait()
}
