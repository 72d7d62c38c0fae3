package graph

import (
	"fmt"
	"sort"
	"sync"

	"ecgraph/internal/tensor"
)

// LocalCSR is a worker-local weighted CSR in compact column indexing:
// columns < NOwned address rows of the worker's owned matrix, columns ≥
// NOwned address ghost slot (col − NOwned). It is the per-worker slice of a
// global operator (one row per owned vertex), built once at preprocessing
// and reused every layer of every epoch.
//
// Each row's entries are stored owned-first: all owned columns precede all
// ghost columns, preserving input order within each group (ghostStart marks
// the boundary). That layout is what makes the split kernels exact — the
// full SpMM accumulates a row's owned entries and then its ghost entries in
// storage order, so SpMMOwnedInto followed by SpMMGhostInto into the same
// output reproduces SpMM bit-for-bit, with no float reassociation between
// the fused and split paths. The comm/compute overlap pipeline depends on
// this: the owned half runs while ghost messages are in flight, and folding
// the ghost half in afterwards must not perturb a single ulp.
type LocalCSR struct {
	NOwned int
	RowPtr []int32
	ColIdx []int32
	Val    []float32

	// ghostStart[i] is the index into ColIdx/Val where row i's ghost
	// columns begin; RowPtr[i] ≤ ghostStart[i] ≤ RowPtr[i+1].
	ghostStart []int32

	// boundary lists the rows with at least one ghost column, ascending.
	// The ghost half of the product only touches these rows, so the dense
	// transform of the ghost contribution can run over len(boundary)
	// compact rows instead of NumRows() mostly-zero ones.
	boundary []int32

	// nnzOwned/nnzGhost count the entries in each column group, sizing the
	// split kernels' banding work estimates.
	nnzOwned, nnzGhost int

	// ownedRows and ghostRows are how many rows the owned and ghost operands
	// must have to cover every column. Each product checks its operand
	// against them once, before the kernel reads a row.
	ownedRows, ghostRows int

	// strips caches stripOffsets, one table per strip height met.
	stripMu sync.Mutex
	strips  []stripTable
}

// NewLocalCSR builds a LocalCSR over nOwned output rows from row-major
// entries whose columns may interleave owned and ghost positions; the
// constructor partitions each row owned-first (stable within the owned
// group). Each row's ghost columns are stored in ascending compact index:
// the ghost fold walks the ghost rows in ascending strips, and only a sorted
// layout makes strip order equal storage order. Negative columns panic. The
// inputs are not retained.
func NewLocalCSR(nOwned int, rowPtr, colIdx []int32, val []float32) *LocalCSR {
	if len(rowPtr) == 0 || len(colIdx) != len(val) {
		panic(fmt.Sprintf("graph: LocalCSR inputs inconsistent: %d rowPtr, %d colIdx, %d val",
			len(rowPtr), len(colIdx), len(val)))
	}
	nRows := len(rowPtr) - 1
	a := &LocalCSR{
		NOwned:     nOwned,
		RowPtr:     append([]int32(nil), rowPtr...),
		ColIdx:     make([]int32, len(colIdx)),
		Val:        make([]float32, len(val)),
		ghostStart: make([]int32, nRows),
	}
	for i := 0; i < nRows; i++ {
		out := rowPtr[i]
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			if c := int(colIdx[p]); c < 0 {
				panic(fmt.Sprintf("graph: LocalCSR row %d has column %d", i, c))
			} else if c < nOwned {
				a.ColIdx[out] = colIdx[p]
				a.Val[out] = val[p]
				a.ownedRows = max(a.ownedRows, c+1)
				out++
			}
		}
		a.ghostStart[i] = out
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			if c := int(colIdx[p]); c >= nOwned {
				a.ColIdx[out] = colIdx[p]
				a.Val[out] = val[p]
				a.ghostRows = max(a.ghostRows, c-nOwned+1)
				out++
			}
		}
		if out != rowPtr[i+1] {
			panic(fmt.Sprintf("graph: LocalCSR row %d fill mismatch", i))
		}
		if gs := a.ghostStart[i]; out-gs > 1 {
			ci, vi := a.ColIdx[gs:out], a.Val[gs:out]
			sort.Sort(&ghostEntrySort{ci, vi})
		}
		if a.ghostStart[i] < rowPtr[i+1] {
			a.boundary = append(a.boundary, int32(i))
		}
		a.nnzOwned += int(a.ghostStart[i] - rowPtr[i])
		a.nnzGhost += int(rowPtr[i+1] - a.ghostStart[i])
	}
	return a
}

// ghostEntrySort orders one row's ghost (column, weight) pairs by column.
// Columns within a row are unique, so the sort is trivially stable.
type ghostEntrySort struct {
	col []int32
	val []float32
}

func (s *ghostEntrySort) Len() int           { return len(s.col) }
func (s *ghostEntrySort) Less(i, j int) bool { return s.col[i] < s.col[j] }
func (s *ghostEntrySort) Swap(i, j int) {
	s.col[i], s.col[j] = s.col[j], s.col[i]
	s.val[i], s.val[j] = s.val[j], s.val[i]
}

// NumRows returns the number of output rows (owned vertices).
func (a *LocalCSR) NumRows() int { return len(a.RowPtr) - 1 }

// HasGhostColumns reports whether any entry references a ghost column.
func (a *LocalCSR) HasGhostColumns() bool { return len(a.boundary) > 0 }

// BoundaryRows returns the ascending list of rows with at least one ghost
// column. The slice is owned by the LocalCSR; callers must not mutate it.
func (a *LocalCSR) BoundaryRows() []int32 { return a.boundary }

// SpMM computes the full product A·Hcat, where Hcat stacks the owned rows
// above the ghost rows in compact local indexing. It is the fused oracle the
// split kernels are proven against: per row, owned entries accumulate first
// (they are stored first), then ghost entries, so the result is bit-for-bit
// identical to SpMMOwnedInto followed by SpMMGhostInto.
func (a *LocalCSR) SpMM(hcat *tensor.Matrix) *tensor.Matrix {
	checkOperand("SpMM", hcat.Rows, a.hcatRows())
	out := tensor.New(a.NumRows(), hcat.Cols)
	cols := hcat.Cols
	tensor.ParallelRows(a.NumRows(), len(a.Val)*cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p, q := a.RowPtr[i], a.RowPtr[i+1]
			tensor.AxpyGather(out.Data[i*cols:(i+1)*cols], a.Val[p:q], a.ColIdx[p:q], hcat.Data, 0, cols)
		}
	})
	return out
}

// SpMMRows computes rows `rows` of A·Hcat into a len(rows)×Cols(Hcat)
// matrix, Hcat stacked as for SpMM. Row k is SpMM's row rows[k] bit for
// bit — one tensor.AxpyGather over that CSR row — so it does not depend on
// which other rows are asked for. Rows may repeat and come in any order.
func (a *LocalCSR) SpMMRows(hcat *tensor.Matrix, rows []int32) *tensor.Matrix {
	checkOperand("SpMMRows", hcat.Rows, a.hcatRows())
	out := tensor.New(len(rows), hcat.Cols)
	cols := hcat.Cols
	avgDeg := max(1, len(a.Val)/max(1, a.NumRows()))
	tensor.ParallelRows(len(rows), len(rows)*avgDeg*cols, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			p, q := a.RowPtr[rows[k]], a.RowPtr[rows[k]+1]
			tensor.AxpyGather(out.Data[k*cols:(k+1)*cols], a.Val[p:q], a.ColIdx[p:q], hcat.Data, 0, cols)
		}
	})
	return out
}

// hcatRows is how many rows a stacked operand needs to cover every column.
func (a *LocalCSR) hcatRows() int {
	if a.ghostRows > 0 {
		return a.NOwned + a.ghostRows
	}
	return a.ownedRows
}

// SpMMOwnedInto accumulates the owned-column contributions of A·[owned;·]
// into out: out[i] += Σ_{col<NOwned} A[i,col]·owned[col]. out must be
// NumRows()×owned.Cols and is typically freshly zeroed; the caller later
// folds in the ghost half with SpMMGhostInto. This is the ghost-independent
// part of a layer's aggregation — it runs while the ghost exchange is on the
// wire.
func (a *LocalCSR) SpMMOwnedInto(owned, out *tensor.Matrix) {
	if out.Rows != a.NumRows() || out.Cols != owned.Cols {
		panic(fmt.Sprintf("graph: SpMMOwnedInto output %dx%d, want %dx%d",
			out.Rows, out.Cols, a.NumRows(), owned.Cols))
	}
	checkOperand("SpMMOwnedInto", owned.Rows, a.ownedRows)
	cols := owned.Cols
	tensor.ParallelRows(a.NumRows(), a.nnzOwned*cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p, q := a.RowPtr[i], a.ghostStart[i]
			tensor.AxpyGather(out.Data[i*cols:(i+1)*cols], a.Val[p:q], a.ColIdx[p:q], owned.Data, 0, cols)
		}
	})
}

// SpMMGhostInto accumulates the ghost-column contributions into out:
// out[i] += Σ_{col≥NOwned} A[i,col]·ghost[col−NOwned]. A nil or empty ghost
// matrix is a no-op (a worker with no remote neighbours). Applied after
// SpMMOwnedInto on the same output it completes the product exactly as the
// fused SpMM would have.
func (a *LocalCSR) SpMMGhostInto(ghost, out *tensor.Matrix) {
	a.SpMMGhostPacked(NewGhostDense(ghost), out)
}

// SpMMGhostCompact computes the ghost-column contributions for the boundary
// rows only, returning a len(BoundaryRows())×ghost.Cols matrix whose row k
// is the ghost contribution of owned row BoundaryRows()[k]. Row k holds
// exactly the sum SpMMGhostInto would have accumulated into that row — same
// entries, same storage order, so scattering the compact rows back (e.g.
// tensor.AddRowsAt) reproduces the split product bit-for-bit while any dense
// transform of the ghost contribution (its matmul against the layer weights)
// costs O(boundary) rather than O(owned) rows.
func (a *LocalCSR) SpMMGhostCompact(ghost *tensor.Matrix) *tensor.Matrix {
	return a.SpMMGhostCompactPacked(NewGhostDense(ghost), nil)
}

// checkOperand panics unless an operand of rows rows covers the need rows a
// product's columns address.
func checkOperand(op string, rows, need int) {
	if rows < need {
		panic(fmt.Sprintf("graph: %s operand has %d rows, the CSR's columns address %d", op, rows, need))
	}
}
