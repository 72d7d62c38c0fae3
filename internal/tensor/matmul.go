package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelThreshold is the amount of scalar work (approximate multiply-adds)
// below which a kernel runs single-threaded; spawning goroutines for tiny
// products costs more than it saves.
const parallelThreshold = 32 * 1024

// MatMul returns m · n using a cache-blocked ikj kernel, parallelised over
// row bands when the product is large enough.
func (m *Matrix) MatMul(n *Matrix) *Matrix {
	if m.Cols != n.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %dx%d · %dx%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	out := New(m.Rows, n.Cols)
	parallelRows(m.Rows, m.Rows*m.Cols*n.Cols, func(lo, hi int) {
		matmulRange(out, m, n, lo, hi)
	})
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
	parallelRows(len(rows), len(rows)*m.Cols*n.Cols, func(lo, hi int) {
		for _, r := range rows[lo:hi] {
			matmulRange(out, m, n, int(r), int(r)+1)
		}
	})
}

// matmulRange computes rows [lo,hi) of out = m·n with an ikj loop order:
// the inner loop streams through contiguous rows of n and out, which lets
// the compiler keep everything in cache lines and vectorise.
func matmulRange(out, m, n *Matrix, lo, hi int) {
	K, N := m.Cols, n.Cols
	for i := lo; i < hi; i++ {
		mrow := m.Data[i*K : (i+1)*K]
		orow := out.Data[i*N : (i+1)*N]
		for k, a := range mrow {
			if a == 0 {
				continue
			}
			nrow := n.Data[k*N : (k+1)*N]
			for j, b := range nrow {
				orow[j] += a * b
			}
		}
	}
}

// MatMulT returns m · nᵀ without materialising the transpose.
func (m *Matrix) MatMulT(n *Matrix) *Matrix {
	if m.Cols != n.Cols {
		panic(fmt.Sprintf("tensor: MatMulT inner dimension mismatch %dx%d · (%dx%d)ᵀ", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	out := New(m.Rows, n.Rows)
	work := func(lo, hi int) {
		K := m.Cols
		for i := lo; i < hi; i++ {
			mrow := m.Data[i*K : (i+1)*K]
			orow := out.Data[i*n.Rows : (i+1)*n.Rows]
			for j := 0; j < n.Rows; j++ {
				nrow := n.Data[j*K : (j+1)*K]
				var acc float32
				for k, a := range mrow {
					acc += a * nrow[k]
				}
				orow[j] = acc
			}
		}
	}
	parallelRows(m.Rows, m.Rows*m.Cols*n.Rows, work)
	return out
}

// TMatMul returns mᵀ · n without materialising the transpose. The result is
// Cols(m) × Cols(n); used for weight gradients Y = Hᵀ(AG).
func (m *Matrix) TMatMul(n *Matrix) *Matrix {
	if m.Rows != n.Rows {
		panic(fmt.Sprintf("tensor: TMatMul inner dimension mismatch (%dx%d)ᵀ · %dx%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	out := New(m.Cols, n.Cols)
	// Parallelise over bands of output rows (columns of m). Each worker owns
	// a disjoint band so no synchronisation is needed.
	work := func(lo, hi int) {
		N := n.Cols
		for r := 0; r < m.Rows; r++ {
			mrow := m.Data[r*m.Cols : (r+1)*m.Cols]
			nrow := n.Data[r*N : (r+1)*N]
			for c := lo; c < hi; c++ {
				a := mrow[c]
				if a == 0 {
					continue
				}
				orow := out.Data[c*N : (c+1)*N]
				for j, b := range nrow {
					orow[j] += a * b
				}
			}
		}
	}
	parallelRows(m.Cols, m.Rows*m.Cols*n.Cols, work)
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
