package graph

import (
	"fmt"

	"ecgraph/internal/compress"
	"ecgraph/internal/tensor"
)

// GhostOperand is the ghost half of a layer's aggregation input in hybrid
// form: each ghost row is either a float32 row (raw payloads, EC-selected
// rows, degraded fallbacks) or a row of a packed compress.Blocked — the
// wire format itself, never decoded — or unset, which means a zero row (the
// top-layer gradient rows nobody ships, DESIGN.md §10). The packed SpMM
// kernels consume it directly, dequantising on register through the block
// LUTs and skipping unset slots: every accumulator starts at +0 and is only
// ever added to, so it is never −0, and acc + w·(+0) is the identity on it.
//
// Bitwise contract: a kernel walking a GhostOperand reads, per element,
// exactly the float32 value a decode pass would have materialised (dense
// rows verbatim, packed rows via BucketValue-identical LUTs), in the same
// CSR storage order — so packed and decode-then-SpMM results are
// bit-for-bit equal by construction.
type GhostOperand struct {
	Rows, Cols int

	// dense, when non-nil, holds every row as one matrix — the decode
	// oracle's representation (and the -packed-spmm=false path).
	dense *tensor.Matrix

	// Hybrid representation: rowF[r] is row r's float data, or nil when
	// the row lives in rowB[r] at row rowIx[r] of the packed payload; both
	// nil is an unset slot.
	rowF    [][]float32
	rowB    []*compress.Blocked
	rowIx   []int32
	nPacked int
}

// NewGhostDense wraps a fully decoded ghost matrix (nil passes through, a
// worker with no remote neighbours).
func NewGhostDense(m *tensor.Matrix) *GhostOperand {
	if m == nil {
		return nil
	}
	return &GhostOperand{Rows: m.Rows, Cols: m.Cols, dense: m}
}

// NewGhostHybrid returns an empty rows×cols operand to be filled row by
// row (SetRowDense) or payload by payload (SetRowsPacked).
func NewGhostHybrid(rows, cols int) *GhostOperand {
	return &GhostOperand{
		Rows: rows, Cols: cols,
		rowF:  make([][]float32, rows),
		rowB:  make([]*compress.Blocked, rows),
		rowIx: make([]int32, rows),
	}
}

// SetRowDense installs a float row at slot i by reference (not copied; the
// caller keeps it immutable while the operand is live).
func (g *GhostOperand) SetRowDense(i int, row []float32) {
	if len(row) != g.Cols {
		panic(fmt.Sprintf("graph: SetRowDense row length %d != cols %d", len(row), g.Cols))
	}
	if g.rowB[i] != nil {
		g.nPacked--
	}
	g.rowF[i] = row
	g.rowB[i] = nil
}

// SetRowPacked installs row srcRow of the packed payload b at slot i.
func (g *GhostOperand) SetRowPacked(i int, b *compress.Blocked, srcRow int) {
	if b.Cols != g.Cols {
		panic(fmt.Sprintf("graph: SetRowPacked payload cols %d != cols %d", b.Cols, g.Cols))
	}
	if g.rowB[i] == nil {
		g.nPacked++
	}
	g.rowF[i] = nil
	g.rowB[i] = b
	g.rowIx[i] = int32(srcRow)
}

// SetRowsPacked installs all of b's rows at slots base..base+b.Rows-1 —
// one peer's quantised payload landing at its ghostBase offset.
func (g *GhostOperand) SetRowsPacked(base int, b *compress.Blocked) {
	for r := 0; r < b.Rows; r++ {
		g.SetRowPacked(base+r, b, r)
	}
}

// NumPacked returns how many rows are in packed form (telemetry, tests).
func (g *GhostOperand) NumPacked() int { return g.nPacked }

// Dense returns the operand as one decoded float32 matrix: the wrapped
// matrix for dense operands (no copy), a fresh decode for hybrids — the
// -packed-spmm=false oracle path and cold consumers that need float rows.
// Unset hybrid slots stay zero.
func (g *GhostOperand) Dense() *tensor.Matrix {
	if g == nil {
		return nil
	}
	if g.dense != nil {
		return g.dense
	}
	out := tensor.New(g.Rows, g.Cols)
	for r := 0; r < g.Rows; r++ {
		if f := g.rowF[r]; f != nil {
			copy(out.Data[r*g.Cols:(r+1)*g.Cols], f)
		} else if b := g.rowB[r]; b != nil {
			b.DequantRowInto(int(g.rowIx[r]), out.Data[r*g.Cols:(r+1)*g.Cols])
		}
	}
	return out
}

// accumRow accumulates w times ghost row r into dst.
func (g *GhostOperand) accumRow(dst []float32, w float32, r int) {
	if g.dense != nil {
		hrow := g.dense.Data[r*g.Cols : (r+1)*g.Cols]
		for j, x := range hrow {
			dst[j] += w * x
		}
		return
	}
	if f := g.rowF[r]; f != nil {
		for j, x := range f {
			dst[j] += w * x
		}
		return
	}
	if b := g.rowB[r]; b != nil {
		b.AccumRow(dst, w, int(g.rowIx[r]))
	}
}

// SpMMGhostPacked accumulates the ghost-column contributions into out like
// SpMMGhostInto, but consumes the hybrid operand — packed rows are
// dequantised on register, never materialised. Nil or empty operands are a
// no-op.
func (a *LocalCSR) SpMMGhostPacked(g *GhostOperand, out *tensor.Matrix) {
	if g == nil || g.Rows == 0 {
		return
	}
	if out.Rows != a.NumRows() || out.Cols != g.Cols {
		panic(fmt.Sprintf("graph: SpMMGhostPacked output %dx%d, want %dx%d",
			out.Rows, out.Cols, a.NumRows(), g.Cols))
	}
	work := a.nnzGhost * g.Cols
	if tensor.InlineRows(a.NumRows(), work) {
		a.ghostPackedRange(g, out, 0, a.NumRows())
		return
	}
	tensor.ParallelRows(a.NumRows(), work, func(lo, hi int) {
		a.ghostPackedRange(g, out, lo, hi)
	})
}

// ghostPackedRange accumulates owned rows [lo, hi) of the full-output
// ghost product.
func (a *LocalCSR) ghostPackedRange(g *GhostOperand, out *tensor.Matrix, lo, hi int) {
	cols := g.Cols
	for i := lo; i < hi; i++ {
		orow := out.Data[i*cols : (i+1)*cols]
		for p := a.ghostStart[i]; p < a.RowPtr[i+1]; p++ {
			g.accumRow(orow, a.Val[p], int(a.ColIdx[p])-a.NOwned)
		}
	}
}

// SpMMGhostCompactPacked is SpMMGhostCompact over the hybrid operand:
// boundary-rows-only output, each row accumulated in CSR storage order so
// the result is bit-for-bit what decode-then-SpMMGhostCompact computes.
// The output comes from ar when non-nil (it must outlive the caller's use,
// not the call), and the kernel picks between direct register dequant and
// the strip-tiled schedule (tiles.go) by the operand's packed-row reuse.
func (a *LocalCSR) SpMMGhostCompactPacked(g *GhostOperand, ar *tensor.Arena) *tensor.Matrix {
	if g == nil || g.Rows == 0 || len(a.boundary) == 0 {
		return nil
	}
	cols := g.Cols
	var out *tensor.Matrix
	if ar != nil {
		out = ar.Matrix(len(a.boundary), cols)
	} else {
		out = tensor.New(len(a.boundary), cols)
	}
	if a.useTiled(g) {
		a.spmmGhostCompactTiled(g, out, ar)
		return out
	}
	a.spmmGhostCompactDirect(g, out)
	return out
}

// spmmGhostCompactDirect is the register-dequant schedule: one pass over
// the boundary rows, each packed element dequantised through the word
// kernels. The inline-sized case calls the range body directly — no
// closure, keeping the steady-state path at zero allocations.
func (a *LocalCSR) spmmGhostCompactDirect(g *GhostOperand, out *tensor.Matrix) {
	work := a.nnzGhost * g.Cols
	if tensor.InlineRows(len(a.boundary), work) {
		a.ghostCompactRange(g, out, 0, len(a.boundary))
		return
	}
	tensor.ParallelRows(len(a.boundary), work, func(lo, hi int) {
		a.ghostCompactRange(g, out, lo, hi)
	})
}

// ghostCompactRange accumulates boundary rows [lo, hi) of the compact
// ghost product.
func (a *LocalCSR) ghostCompactRange(g *GhostOperand, out *tensor.Matrix, lo, hi int) {
	cols := g.Cols
	for k := lo; k < hi; k++ {
		i := int(a.boundary[k])
		orow := out.Data[k*cols : (k+1)*cols]
		for p := a.ghostStart[i]; p < a.RowPtr[i+1]; p++ {
			g.accumRow(orow, a.Val[p], int(a.ColIdx[p])-a.NOwned)
		}
	}
}
