package graph

import (
	"ecgraph/internal/compress"
	"ecgraph/internal/tensor"
)

// Tile scheduler for the packed ghost SpMM: the ghost row range is split
// into column-tile strips (strips of ghost rows — the columns of the local
// operator) sized so one strip's decoded float rows fit comfortably in L2.
// Each strip's packed rows are decoded exactly once into arena scratch,
// then every boundary row accumulates its entries that fall in the strip.
// When ghost rows are aggregated by several boundary rows (reuse ≥
// tileMinReuse) this beats register dequant, which would re-shift the same
// packed words once per referencing row; with low reuse the direct kernel
// wins and the scheduler stands aside.
//
// Bitwise safety: NewLocalCSR stores each row's ghost columns ascending,
// so visiting strips in ascending order walks each row's entries in
// storage order — the same order the direct kernel and the decode oracle
// use. The decoded scratch holds the exact LUT values register dequant
// would produce, so the sums match bit for bit.

// tileL2Floats is the per-strip scratch budget in float32 elements:
// 256 KiB, about half a typical per-core L2, leaving room for the output
// rows and the adjacency stream.
const tileL2Floats = 256 * 1024 / 4

// tileMinReuse is the average references-per-ghost-row threshold at which
// decode-once-per-strip overtakes per-reference register dequant. Measured
// on the acceptance shapes (64-wide rows, B ∈ {2,4,8}): direct wins up to
// reuse ≈ 3 (each packed word is dequantised few times and the words stay
// cache-resident), the schedules tie near reuse ≈ 6, and tiled wins
// clearly by reuse ≈ 11, where re-dequantising per reference dominates the
// strip's extra output traffic.
const tileMinReuse = 6

// tileMode forces a schedule in tests: 0 auto, 1 direct, 2 tiled.
var tileMode = 0

// stripRows returns the tile height in ghost rows for a given row width,
// aligned down to the packed block granularity.
func stripRows(cols int) int {
	s := tileL2Floats / cols
	if s < compress.BlockRows {
		return compress.BlockRows
	}
	return s - s%compress.BlockRows
}

// useTiled decides whether the strip-tiled schedule pays for the operand.
func (a *LocalCSR) useTiled(g *GhostOperand) bool {
	switch tileMode {
	case 1:
		return false
	case 2:
		return g.nPacked > 0
	}
	if g.nPacked == 0 || g.Rows == 0 {
		return false
	}
	return a.nnzGhost >= tileMinReuse*g.Rows && g.Rows > stripRows(g.Cols)
}

// spmmGhostCompactTiled runs the strip-tiled schedule into out (compact
// boundary-row layout, already zeroed). Scratch comes from ar when
// non-nil.
func (a *LocalCSR) spmmGhostCompactTiled(g *GhostOperand, out *tensor.Matrix, ar *tensor.Arena) {
	cols := g.Cols
	strip := stripRows(cols)
	// Single-assignment via the helper: the parallel branches capture
	// scratch, and a variable assigned in if/else arms is conservatively
	// heap-boxed by escape analysis, which would cost an allocation per
	// call even on the inline path.
	scratch := tileScratch(ar, strip*cols)
	nStrips := (g.Rows + strip - 1) / strip
	accWork := a.nnzGhost*cols/nStrips + len(a.boundary)
	for next := 0; next < g.Rows; next += strip {
		// Per-iteration copies: the parallel branches capture these, and
		// capturing the mutated loop variable itself would heap-box it even
		// on the inline path, costing the zero-allocation guarantee.
		lo := next
		hi := lo + strip
		if hi > g.Rows {
			hi = g.Rows
		}
		// Decode the strip's packed rows once. Dense rows are used in
		// place — copying them would only churn the cache. Inline-sized
		// strips call the range bodies directly (no closure) so the
		// steady-state path stays allocation-free.
		if tensor.InlineRows(hi-lo, (hi-lo)*cols) {
			g.tileDecodeRange(scratch, lo, lo, hi)
		} else {
			tensor.ParallelRows(hi-lo, (hi-lo)*cols, func(rlo, rhi int) {
				g.tileDecodeRange(scratch, lo, lo+rlo, lo+rhi)
			})
		}
		if tensor.InlineRows(len(a.boundary), accWork) {
			a.tileAccumRange(g, out, scratch, lo, hi, 0, len(a.boundary))
		} else {
			tensor.ParallelRows(len(a.boundary), accWork, func(klo, khi int) {
				a.tileAccumRange(g, out, scratch, lo, hi, klo, khi)
			})
		}
	}
}

// tileScratch returns the strip decode buffer: arena-carved when an arena
// is supplied, heap otherwise.
func tileScratch(ar *tensor.Arena, n int) []float32 {
	if ar != nil {
		return ar.Floats(n)
	}
	return make([]float32, n)
}

// tileDecodeRange decodes the packed rows among ghost rows [rlo, rhi) into
// the strip scratch, which is based at ghost row stripLo. Dense and unset
// slots leave their scratch rows untouched (stale): tileAccumRange never
// reads them.
func (g *GhostOperand) tileDecodeRange(scratch []float32, stripLo, rlo, rhi int) {
	cols := g.Cols
	for r := rlo; r < rhi; r++ {
		if b := g.rowB[r]; b != nil {
			b.DequantRowInto(int(g.rowIx[r]), scratch[(r-stripLo)*cols:(r-stripLo+1)*cols])
		}
	}
}

// tileAccumRange accumulates, for boundary rows [klo, khi), the entries
// whose ghost columns fall in the strip [lo, hi), reading decoded rows from
// scratch and dense rows in place.
func (a *LocalCSR) tileAccumRange(g *GhostOperand, out *tensor.Matrix, scratch []float32, lo, hi, klo, khi int) {
	cols := g.Cols
	for k := klo; k < khi; k++ {
		i := int(a.boundary[k])
		orow := out.Data[k*cols : (k+1)*cols]
		// Ghost entries of row i are sorted by column: binary search the
		// first entry at or above the strip, then walk forward while
		// inside it.
		pLo, pHi := int(a.ghostStart[i]), int(a.RowPtr[i+1])
		for pLo < pHi {
			mid := int(uint(pLo+pHi) >> 1)
			if int(a.ColIdx[mid])-a.NOwned < lo {
				pLo = mid + 1
			} else {
				pHi = mid
			}
		}
		for p := pLo; p < int(a.RowPtr[i+1]); p++ {
			r := int(a.ColIdx[p]) - a.NOwned
			if r >= hi {
				break
			}
			w := a.Val[p]
			var hrow []float32
			if f := g.rowF[r]; f != nil {
				hrow = f
			} else if g.rowB[r] != nil {
				hrow = scratch[(r-lo)*cols : (r-lo+1)*cols]
			} else {
				continue // unset slot: a zero row
			}
			for j, x := range hrow {
				orow[j] += w * x
			}
		}
	}
}
