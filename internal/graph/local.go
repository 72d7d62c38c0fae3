package graph

import (
	"fmt"
	"sort"

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
}

// NewLocalCSR builds a LocalCSR over nOwned output rows from row-major
// entries whose columns may interleave owned and ghost positions; the
// constructor partitions each row owned-first (stable within the owned
// group). Each row's ghost columns are stored in ascending compact index:
// the tile scheduler walks ghost-row strips in ascending order, and only a
// sorted layout makes strip order equal storage order — the property that
// keeps the tiled packed kernels bit-for-bit identical to the direct ones.
// The inputs are not retained.
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
			if int(colIdx[p]) < nOwned {
				a.ColIdx[out] = colIdx[p]
				a.Val[out] = val[p]
				out++
			}
		}
		a.ghostStart[i] = out
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			if int(colIdx[p]) >= nOwned {
				a.ColIdx[out] = colIdx[p]
				a.Val[out] = val[p]
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
	out := tensor.New(a.NumRows(), hcat.Cols)
	cols := hcat.Cols
	tensor.ParallelRows(a.NumRows(), len(a.Val)*cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := out.Data[i*cols : (i+1)*cols]
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				c, w := a.ColIdx[p], a.Val[p]
				hrow := hcat.Data[int(c)*cols : (int(c)+1)*cols]
				if p < a.ghostStart[i] {
					// The owned half rounds each product before its add
					// (tensor.Axpy4's contract); the ghost loops leave that
					// to the compiler, which fuses the pair on arm64.
					tensor.Axpy(orow, w, hrow)
					continue
				}
				for j, x := range hrow {
					orow[j] += w * x
				}
			}
		}
	})
	return out
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
	cols, h := owned.Cols, owned.Data
	tensor.ParallelRows(a.NumRows(), a.nnzOwned*cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := out.Data[i*cols : (i+1)*cols]
			// Four neighbours per pass over the output row, in storage
			// order: the sum a neighbour at a time would give.
			p, end := a.RowPtr[i], a.ghostStart[i]
			for ; p+4 <= end; p += 4 {
				v, c := a.Val[p:p+4], a.ColIdx[p:p+4]
				c0, c1, c2, c3 := int(c[0])*cols, int(c[1])*cols, int(c[2])*cols, int(c[3])*cols
				tensor.Axpy4(orow, v[0], v[1], v[2], v[3], h[c0:c0+cols], h[c1:c1+cols], h[c2:c2+cols], h[c3:c3+cols])
			}
			for ; p < end; p++ {
				c0 := int(a.ColIdx[p]) * cols
				tensor.Axpy(orow, a.Val[p], h[c0:c0+cols])
			}
		}
	})
}

// SpMMGhostInto accumulates the ghost-column contributions into out:
// out[i] += Σ_{col≥NOwned} A[i,col]·ghost[col−NOwned]. A nil or empty ghost
// matrix is a no-op (a worker with no remote neighbours). Applied after
// SpMMOwnedInto on the same output it completes the product exactly as the
// fused SpMM would have.
func (a *LocalCSR) SpMMGhostInto(ghost, out *tensor.Matrix) {
	if ghost == nil || ghost.Rows == 0 {
		return
	}
	if out.Rows != a.NumRows() || out.Cols != ghost.Cols {
		panic(fmt.Sprintf("graph: SpMMGhostInto output %dx%d, want %dx%d",
			out.Rows, out.Cols, a.NumRows(), ghost.Cols))
	}
	cols := ghost.Cols
	tensor.ParallelRows(a.NumRows(), a.nnzGhost*cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			orow := out.Data[i*cols : (i+1)*cols]
			for p := a.ghostStart[i]; p < a.RowPtr[i+1]; p++ {
				c, w := a.ColIdx[p], a.Val[p]
				hrow := ghost.Data[(int(c)-a.NOwned)*cols : (int(c)-a.NOwned+1)*cols]
				for j, x := range hrow {
					orow[j] += w * x
				}
			}
		}
	})
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
	if ghost == nil || ghost.Rows == 0 || len(a.boundary) == 0 {
		return nil
	}
	cols := ghost.Cols
	out := tensor.New(len(a.boundary), cols)
	tensor.ParallelRows(len(a.boundary), a.nnzGhost*cols, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			i := int(a.boundary[k])
			orow := out.Data[k*cols : (k+1)*cols]
			for p := a.ghostStart[i]; p < a.RowPtr[i+1]; p++ {
				c, w := a.ColIdx[p], a.Val[p]
				hrow := ghost.Data[(int(c)-a.NOwned)*cols : (int(c)-a.NOwned+1)*cols]
				for j, x := range hrow {
					orow[j] += w * x
				}
			}
		}
	})
	return out
}
