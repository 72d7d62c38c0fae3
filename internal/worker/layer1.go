package worker

import (
	"ecgraph/internal/tensor"
)

// layer1Agg is the epoch-invariant half of layer 1. Both operands of the
// layer's aggregation are static — the worker's slice of Â and the features
// X, remote rows included (the first-hop cache, §III-A) — so ÂX is computed
// on the first forward pass and every later epoch runs only the dense ·W
// products against it (DESIGN.md §10, "epoch-invariant layer 1").
//
// A layer computes z = (Â_owned H)·W and then adds (Â_ghost H)·W into the
// boundary rows: two products summed, not the product of the sum. To keep
// those bits the boundary rows' two terms are retained separately, compact
// over BoundaryRows(); interior rows have no ghost term, and MatMul is
// row-independent, so their rows of z come straight from ah.
type layer1Agg struct {
	// ah is ÂX over the owned rows, owned part plus scattered ghost part:
	// on interior rows the whole of layer 1's aggregation, and the left
	// operand of the weight gradient ∇W¹ = ÂXᵀ·g — which is why its sparse
	// form is two CSRs, its own and its transpose's.
	ah operand
	// boundary lists the rows that received a ghost contribution (the
	// adjacency's BoundaryRows(); nil when there were no ghost features to
	// fold — a single worker, an uncut partition), interior the rest.
	boundary, interior []int32
	// ownedB and ghostB are the owned-column and ghost-column parts of ah's
	// boundary rows, row k ↔ boundary[k].
	ownedB, ghostB operand
}

// operand is one of the aggregate's three left operands. None changes
// between epochs, so each is held in whichever form takes fewer bytes: the
// dense matrix, whose products scan it for its nonzeros every epoch, or the
// CSR that lists them (bit-identical products, tensor.Sparse). Either dense
// is set or sparse is, never both; sparseT, the CSR of the transpose, goes
// with sparse on the operand whose transposed product is taken too. The
// rule is bytes, not speed: the CSR products win at any density, but above
// the break-even they would buy that with resident memory (DESIGN.md §10).
type operand struct {
	dense           *tensor.Matrix
	sparse, sparseT *tensor.Sparse
}

// retain puts m in its smaller form. withT asks for the CSR of mᵀ beside
// m's own, and counts both against m's dense size: under a quarter nonzero
// the pair is smaller, under a half the single CSR is.
func retain(m *tensor.Matrix, withT bool) operand {
	nnz := m.Nonzeros()
	bytes := tensor.SparseBytes(m.Rows, nnz)
	if withT {
		bytes += tensor.SparseBytes(m.Cols, nnz)
	}
	if bytes > 4*len(m.Data) {
		return operand{dense: m}
	}
	o := operand{sparse: tensor.NewSparse(m)}
	if withT {
		o.sparseT = tensor.NewSparseT(m)
	}
	return o
}

func (o operand) matMul(W *tensor.Matrix) *tensor.Matrix {
	if o.sparse != nil {
		return o.sparse.MatMul(W)
	}
	return o.dense.MatMul(W)
}

func (o operand) matMulRowsInto(W, out *tensor.Matrix, rows []int32) {
	if o.sparse != nil {
		o.sparse.MatMulRowsInto(W, out, rows)
	} else {
		o.dense.MatMulRowsInto(W, out, rows)
	}
}

// tMatMul is oᵀ·g, for an operand retained withT.
func (o operand) tMatMul(g *tensor.Matrix) *tensor.Matrix {
	if o.sparseT != nil {
		return o.sparseT.MatMul(g)
	}
	return o.dense.TMatMul(g)
}

// sparseOperands counts the operands held as CSR, 0 to 3.
func (a *layer1Agg) sparseOperands() int {
	n := 0
	for _, o := range []operand{a.ah, a.ownedB, a.ghostB} {
		if o.sparse != nil {
			n++
		}
	}
	return n
}

// buildLayer1 runs layer 1's aggregation at full feature width — the
// owned-column SpMM over x and the compact ghost fold over the cached ghost
// features — and releases ghostX, whose only consumer this is: the
// first-hop feature cache is replaced by its consumer's output. The fold
// reads ghostX as a plain dense matrix (SpMMGhostCompact: the one ghost fold
// over a dense operand, heap-allocated, so nothing retained here lives in
// the layer arena). Each operand is then retained in
// its smaller form and the dense matrix it was counted from dropped.
func (w *Worker) buildLayer1() *layer1Agg {
	agg := &layer1Agg{}
	ah := tensor.New(len(w.owned), w.x.Cols)
	w.adj.SpMMOwnedInto(w.x, ah)
	if ghostB := w.adj.SpMMGhostCompact(w.ghostX); ghostB != nil {
		agg.boundary = w.adj.BoundaryRows()
		agg.ownedB = retain(ah.GatherRows(int32sToInts(agg.boundary)), false)
		ah.AddRowsAt(agg.boundary, ghostB)
		agg.ghostB = retain(ghostB, false)
	}
	agg.ah = retain(ah, true)
	agg.interior = make([]int32, 0, len(w.owned)-len(agg.boundary))
	for i, k := 0, 0; i < len(w.owned); i++ {
		if k < len(agg.boundary) && int(agg.boundary[k]) == i {
			k++
			continue
		}
		agg.interior = append(agg.interior, int32(i))
	}
	w.ghostX = nil
	w.obs.layer1Sparse.Set(float64(agg.sparseOperands()))
	return agg
}

// interiorTimes starts z¹ = ÂX·W: the interior rows, whose aggregation has
// no ghost term. Boundary rows stay zero until foldBoundary.
func (a *layer1Agg) interiorTimes(W *tensor.Matrix) *tensor.Matrix {
	z := tensor.New(len(a.interior)+len(a.boundary), W.Cols)
	a.ah.matMulRowsInto(W, z, a.interior)
	return z
}

// foldBoundary completes z¹ on the boundary rows with the two-term sum
// (Â_owned X)·W + (Â_ghost X)·W, in that order — the float sequence a
// layer's owned product followed by its AddRowsAt ghost fold performs.
func (a *layer1Agg) foldBoundary(z, W *tensor.Matrix) {
	if len(a.boundary) > 0 {
		z.SetRowsAt(a.boundary, a.ownedB.matMul(W).AddInPlace(a.ghostB.matMul(W)))
	}
}
