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

// Axpy4 is the one arithmetic loop under the dense and sparse products (and
// the owned SpMM): o[j] = o[j] + a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j],
// the four terms added left to right, every product rounded to float32 before
// its add: o ends with exactly the bits of four Axpy passes in the same
// order, for a quarter of their loads and stores of o. The b rows must be at
// least as long as o.
//
// On amd64 with AVX2 the leading multiple of eight elements runs eight lanes
// at a time (axpy_amd64.s), each lane the same multiply-round-add-round
// sequence. The loop below is the rest: the tail, everything on other CPUs,
// and — with haveAVX2 off — the reference the vector body is tested against.
// Its explicit conversions round each product before the add, so no compiler
// may fuse the pair on any GOARCH.
func Axpy4(o []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) {
	b0, b1, b2, b3 = b0[:len(o)], b1[:len(o)], b2[:len(o)], b3[:len(o)]
	if haveAVX2 && len(o) >= 8 {
		n := axpy4Lanes(o, a0, a1, a2, a3, b0, b1, b2, b3)
		o, b0, b1, b2, b3 = o[n:], b0[n:], b1[n:], b2[n:], b3[n:]
	}
	// Again, after the branch: it is what keeps bounds checks out of the loop.
	b0, b1, b2, b3 = b0[:len(o)], b1[:len(o)], b2[:len(o)], b3[:len(o)]
	for j := range o {
		o[j] = o[j] + float32(a0*b0[j]) + float32(a1*b1[j]) + float32(a2*b2[j]) + float32(a3*b3[j])
	}
}

// Axpy is the one-term form, o[j] = o[j] + a·b[j], for the up to three terms
// a sum leaves over after its groups of four.
func Axpy(o []float32, a float32, b []float32) {
	b = b[:len(o)]
	if haveAVX2 && len(o) >= 8 {
		n := axpyLanes(o, a, b)
		o, b = o[n:], b[n:]
	}
	b = b[:len(o)]
	for j := range o {
		o[j] += float32(a * b[j])
	}
}

// Kernel names the loop Axpy4 and Axpy run on this machine: "avx2" or "go".
func Kernel() string {
	if haveAVX2 {
		return "avx2"
	}
	return "go"
}

// terms collects the terms a·b[k] of one output row in the order they must be
// added, so that they can be applied four at a time. k is the row of the
// right operand the term reads.
type terms struct {
	a [4]float32
	k [4]int32
	n int
}

// add appends a·b[k] unless a is zero (either sign) and reports whether four
// terms are pending, which the caller must then apply. It does not branch on
// a: at the densities of ÂX and of ReLU outputs that branch is a coin toss
// the predictor loses.
func (t *terms) add(a float32, k int) bool {
	t.a[t.n&3], t.k[t.n&3] = a, int32(k)
	bits := math.Float32bits(a) << 1 // drops the sign: zero iff a == 0
	t.n += int((bits | -bits) >> 31)
	return t.n == 4
}

// apply adds the four pending terms to o; b is the right operand's data, N
// its row length.
func (t *terms) apply(o, b []float32, N int) {
	k0, k1, k2, k3 := int(t.k[0])*N, int(t.k[1])*N, int(t.k[2])*N, int(t.k[3])*N
	Axpy4(o, t.a[0], t.a[1], t.a[2], t.a[3], b[k0:k0+N], b[k1:k1+N], b[k2:k2+N], b[k3:k3+N])
	t.n = 0
}

// flush adds the up to three terms still pending to o, in order; t is done
// with afterwards.
func (t *terms) flush(o, b []float32, N int) {
	for i := 0; i < t.n; i++ {
		k := int(t.k[i]) * N
		Axpy(o, t.a[i], b[k:k+N])
	}
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
	parallelRows(units, count*m.Cols*n.Cols, func(lo, hi int) {
		matmulRange(out, m, n, rows, lo*matmulRows, min(hi*matmulRows, count))
	})
}

// matmulRange accumulates rows [lo,hi) of m·n into out, or rows rows[lo:hi]
// when a row list is given. Each output row gets one pass per four nonzero
// entries of m's row, a pass streaming the four rows of n they select; zero
// entries (ÂX is a fifth nonzero, a ReLU output half) cost a few integer
// operations. The inner index advances in blocks of n that fit L1, all rows
// of the range going through a block before the next, which leaves every
// output element its ascending order.
func matmulRange(out, m, n *Matrix, rows []int32, lo, hi int) {
	K, N := m.Cols, n.Cols
	kb := max(4, matmulL1/(4*max(N, 1)))
	for k0 := 0; k0 < K; k0 += kb {
		k1 := min(k0+kb, K)
		for i := lo; i < hi; i++ {
			r := i
			if rows != nil {
				r = int(rows[i])
			}
			orow := out.Data[r*N : (r+1)*N]
			var t terms
			for k, a := range m.Data[r*K+k0 : r*K+k1] {
				if t.add(a, k0+k) {
					t.apply(orow, n.Data, N)
				}
			}
			t.flush(orow, n.Data, N)
		}
	}
}

// MatMulT returns m · nᵀ: out[i][j] is the float32 sum, in ascending k, of
// the rounded products m[i][k]·n[j][k], zero terms included. The right
// operand here is a weight matrix — small — so it is transposed once and each
// output row is then a sum over contiguous rows, four k per pass, rather
// than one serial add chain per output element.
func (m *Matrix) MatMulT(n *Matrix) *Matrix {
	if m.Cols != n.Cols {
		panic(fmt.Sprintf("tensor: MatMulT inner dimension mismatch %dx%d · (%dx%d)ᵀ", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	out := New(m.Rows, n.Rows)
	nt := n.T().Data
	K, N := m.Cols, n.Rows
	parallelRows(m.Rows, m.Rows*K*N, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := out.Data[i*N : (i+1)*N]
			mrow := m.Data[i*K : (i+1)*K]
			k := 0
			for ; k+4 <= K; k += 4 {
				Axpy4(orow, mrow[k], mrow[k+1], mrow[k+2], mrow[k+3],
					nt[k*N:(k+1)*N], nt[(k+1)*N:(k+2)*N], nt[(k+2)*N:(k+3)*N], nt[(k+3)*N:(k+4)*N])
			}
			for ; k < K; k++ {
				Axpy(orow, mrow[k], nt[k*N:(k+1)*N])
			}
		}
	})
	return out
}

// tmatmulBand is how many columns of m one TMatMul band covers: one 64-byte
// cache line of each of m's rows.
const tmatmulBand = 16

// TMatMul returns mᵀ · n without materialising the transpose. The result is
// Cols(m) × Cols(n); used for weight gradients Y = Hᵀ(AG). out[c][j] is the
// float32 sum, in ascending r, of the rounded products m[r][c]·n[r][j] over
// the nonzero m[r][c].
//
// The product is parallelised over bands of output rows (columns of m); each
// worker owns a disjoint band so no synchronisation is needed. A band sweeps
// m and n top to bottom once, reading one cache line of each of m's rows, and
// keeps per column the terms not yet applied, so that each output row is
// passed over once per four nonzero entries of its column.
func (m *Matrix) TMatMul(n *Matrix) *Matrix {
	if m.Rows != n.Rows {
		panic(fmt.Sprintf("tensor: TMatMul inner dimension mismatch (%dx%d)ᵀ · %dx%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	out := New(m.Cols, n.Cols)
	C, N := m.Cols, n.Cols
	// Narrower bands only when m has too few columns to give every P one.
	procs := runtime.GOMAXPROCS(0)
	width := min(tmatmulBand, max(1, C/procs))
	bands := (C + width - 1) / width
	// A band runs the whole height of m, many times bandWork. On a single P it
	// therefore yields inside the sweep, as often as parallelRows does between
	// bands of other kernels.
	yieldRows := 0
	if procs == 1 {
		yieldRows = max(1, bandWork/(width*max(N, 1)))
	}
	parallelRows(bands, m.Rows*C*N, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			c0 := b * width
			c1 := min(c0+width, C)
			var pending [tmatmulBand]terms
			for r := 0; r < m.Rows; r++ {
				for c, a := range m.Data[r*C+c0 : r*C+c1] {
					if pending[c].add(a, r) {
						pending[c].apply(out.Data[(c0+c)*N:(c0+c+1)*N], n.Data, N)
					}
				}
				if yieldRows > 0 && r%yieldRows == yieldRows-1 {
					runtime.Gosched()
				}
			}
			for c := c0; c < c1; c++ {
				pending[c-c0].flush(out.Data[c*N:(c+1)*N], n.Data, N)
			}
		}
	})
	return out
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
