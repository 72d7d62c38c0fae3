package graph

import (
	"fmt"

	"ecgraph/internal/compress"
	"ecgraph/internal/tensor"
)

// GhostOperand is the ghost half of a layer's aggregation input in hybrid
// form: each ghost row is either a float32 row (raw payloads, EC-selected
// rows, degraded fallbacks) or a row of a packed compress.Blocked — the
// wire format itself, as it arrived — or unset, which means a +0 row (the
// top-layer gradient rows nobody ships, DESIGN.md §10). The ghost fold
// decodes each packed row once per call, into bounded scratch, and runs the
// row kernel over that.
//
// Bitwise contract: the fold reads, per element, exactly the float32 value
// a decode pass would have materialised (dense rows verbatim, packed rows
// via LUTs identical to Quantized.Values, unset rows +0), in the same CSR
// storage order — so packed and decode-then-SpMM results are bit-for-bit
// equal by construction.
type GhostOperand struct {
	Rows, Cols int

	// dense, when non-nil, holds every row as one matrix: a fully decoded
	// operand, such as the delayed-aggregation ghost cache.
	dense *tensor.Matrix

	// Hybrid representation: rowF[r] is row r's float data, or nil when
	// the row lives in rowB[r] at row rowIx[r] of the packed payload; both
	// nil is an unset slot.
	rowF  [][]float32
	rowB  []*compress.Blocked
	rowIx []int32
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
	g.rowF[i] = row
	g.rowB[i] = nil
}

// SetRowPacked installs row srcRow of the packed payload b at slot i.
func (g *GhostOperand) SetRowPacked(i int, b *compress.Blocked, srcRow int) {
	if b.Cols != g.Cols {
		panic(fmt.Sprintf("graph: SetRowPacked payload cols %d != cols %d", b.Cols, g.Cols))
	}
	g.rowF[i] = nil
	g.rowB[i] = b
	g.rowIx[i] = int32(srcRow)
}

// SetRowsPacked installs all of b's rows at slots base..base+b.Rows-1 — a
// quantised payload whose rows land on consecutive slots.
func (g *GhostOperand) SetRowsPacked(base int, b *compress.Blocked) {
	for r := 0; r < b.Rows; r++ {
		g.SetRowPacked(base+r, b, r)
	}
}

// Dense returns the operand as one decoded float32 matrix: the wrapped
// matrix for dense operands (no copy), a fresh decode for hybrids — for
// cold consumers that need float rows. Unset hybrid slots stay zero.
func (g *GhostOperand) Dense() *tensor.Matrix {
	if g == nil {
		return nil
	}
	if g.dense != nil {
		return g.dense
	}
	out := tensor.New(g.Rows, g.Cols)
	g.materialiseRange(out.Data, 0, 0, g.Rows)
	return out
}

// materialiseRange writes ghost rows [lo, hi) into dst, which holds the rows
// from row base on: dense rows copied, unset rows +0, and packed rows
// decoded — a run of slots holding consecutive rows of one payload (a
// peer's SetRowsPacked) as one span, whole packed words at a time.
func (g *GhostOperand) materialiseRange(dst []float32, base, lo, hi int) {
	cols := g.Cols
	for r := lo; r < hi; r++ {
		row := dst[(r-base)*cols:]
		switch b := g.rowB[r]; {
		case g.rowF[r] != nil:
			copy(row[:cols], g.rowF[r])
		case b != nil:
			end, ix := r+1, int(g.rowIx[r])
			for end < hi && g.rowB[end] == b && int(g.rowIx[end]) == ix+end-r {
				end++
			}
			b.DequantRowsInto(ix, ix+end-r, row)
			r = end - 1
		default:
			clear(row[:cols])
		}
	}
}

// SpMMGhostCompactPacked is SpMMGhostCompact over the hybrid operand:
// boundary-rows-only output, each row accumulated in CSR storage order so
// the result is bit-for-bit what decode-then-SpMMGhostCompact computes.
// The output and the decode scratch come from ar when non-nil (the output
// must outlive the caller's use, not the call).
func (a *LocalCSR) SpMMGhostCompactPacked(g *GhostOperand, ar *tensor.Arena) *tensor.Matrix {
	if g == nil || g.Rows == 0 || len(a.boundary) == 0 {
		return nil
	}
	var out *tensor.Matrix
	if ar != nil {
		out = ar.Matrix(len(a.boundary), g.Cols)
	} else {
		out = tensor.New(len(a.boundary), g.Cols)
	}
	a.foldGhost(g, out, ar)
	return out
}

// stripFloats bounds the decode scratch of one ghost fold, in float32
// elements: 256 KiB, about half a typical per-core L2. Each strip past the
// first costs every boundary row one more kernel call; larger strips fold
// wide operands faster but stay resident in every worker's arena
// (EXPERIMENTS.md, "Row-resident CSR kernel").
const stripFloats = 256 * 1024 / 4

// stripRows returns how many ghost rows of a given width one strip of
// decode scratch holds, aligned down to the packed block granularity.
func stripRows(cols int) int {
	s := stripFloats / max(cols, 1)
	if s < compress.BlockRows {
		return compress.BlockRows
	}
	return s - s%compress.BlockRows
}

// foldGhost is the one ghost fold under SpMMGhostCompact and
// SpMMGhostCompactPacked: it adds each boundary row's ghost terms to out,
// at the row's place in BoundaryRows(). A dense operand is the kernel's base as it stands. A
// hybrid one is materialised strip by strip of stripRows ghost rows into
// scratch from ar (heap when nil), and each boundary row runs the kernel
// over its terms in the strip. A row's ghost columns ascend, so walking the
// strips in order adds its terms in storage order.
func (a *LocalCSR) foldGhost(g *GhostOperand, out *tensor.Matrix, ar *tensor.Arena) {
	checkOperand("ghost fold", g.Rows, a.ghostRows)
	f := ghostWalk{a: a, out: out, bias: a.NOwned}
	if g.dense != nil {
		f.base = g.dense.Data
		f.run(a.nnzGhost * g.Cols)
		return
	}
	height := stripRows(g.Cols)
	strips := (a.ghostRows + height - 1) / height
	f.offs, f.width = a.stripOffsets(height, strips), strips+1
	if n := min(height, a.ghostRows) * g.Cols; ar != nil {
		f.base = ar.Floats(n)
	} else {
		f.base = make([]float32, n)
	}
	for lo := 0; lo < a.ghostRows; lo += height {
		hi := min(lo+height, a.ghostRows)
		g.materialise(f.base, lo, hi)
		f.bias = a.NOwned + lo
		f.run(a.nnzGhost * g.Cols / strips)
		f.strip++
	}
}

// materialise writes ghost rows [lo, hi) into scratch from its start.
// Inline-sized strips call the range body directly, with no closure, which
// keeps the steady-state path free of allocations.
func (g *GhostOperand) materialise(scratch []float32, lo, hi int) {
	if tensor.InlineRows(hi-lo, (hi-lo)*g.Cols) {
		g.materialiseRange(scratch, lo, lo, hi)
		return
	}
	tensor.ParallelRows(hi-lo, (hi-lo)*g.Cols, func(rlo, rhi int) {
		g.materialiseRange(scratch, lo, lo+rlo, lo+rhi)
	})
}

// ghostWalk is one pass of the row kernel over the boundary rows: each row's
// terms in strip strip (all of them when offs is nil) against base, whose
// first row is ghost column bias.
type ghostWalk struct {
	a     *LocalCSR
	out   *tensor.Matrix
	base  []float32
	bias  int
	offs  []int32
	width int // entries per boundary row in offs
	strip int
}

// run walks every boundary row; work is the pass's multiply-add estimate.
// Only the parallel branch hands a copy of f to ParallelRows: the method
// value makes its receiver escape, and f itself must stay on the stack for
// the inline path to allocate nothing.
func (f *ghostWalk) run(work int) {
	if tensor.InlineRows(len(f.a.boundary), work) {
		f.rows(0, len(f.a.boundary))
		return
	}
	par := *f
	tensor.ParallelRows(len(f.a.boundary), work, par.rows)
}

// rows walks boundary rows [klo, khi).
func (f *ghostWalk) rows(klo, khi int) {
	a, cols := f.a, f.out.Cols
	for k := klo; k < khi; k++ {
		i := int(a.boundary[k])
		p, q := a.ghostStart[i], a.RowPtr[i+1]
		if f.offs != nil {
			p, q = f.offs[k*f.width+f.strip], f.offs[k*f.width+f.strip+1]
			if p == q { // no term in this strip
				continue
			}
		}
		tensor.AxpyGather(f.out.Data[k*cols:(k+1)*cols], a.Val[p:q], a.ColIdx[p:q], f.base, f.bias, cols)
	}
}

// stripTable is stripOffsets' result for one strip height.
type stripTable struct {
	height int
	offs   []int32
}

// stripOffsets returns where each boundary row's ghost terms cross into
// each of strips strips of height ghost rows: entry k·(strips+1)+s is the
// first term of boundary row k whose ghost row is at least s·height, and
// entry k·(strips+1)+strips is the row's end. Each table is computed once
// per LocalCSR and height; a single strip needs none (nil).
func (a *LocalCSR) stripOffsets(height, strips int) []int32 {
	if strips <= 1 {
		return nil
	}
	a.stripMu.Lock()
	defer a.stripMu.Unlock()
	for _, t := range a.strips {
		if t.height == height {
			return t.offs
		}
	}
	offs := make([]int32, len(a.boundary)*(strips+1))
	for k, i := range a.boundary {
		p, end := a.ghostStart[i], a.RowPtr[i+1]
		for s := 0; s <= strips; s++ {
			for p < end && int(a.ColIdx[p])-a.NOwned < s*height {
				p++
			}
			offs[k*(strips+1)+s] = p
		}
	}
	a.strips = append(a.strips, stripTable{height, offs})
	return offs
}
