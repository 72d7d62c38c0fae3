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
	// the weight gradient's left operand (w.ah[1]) and, on interior rows,
	// the whole of layer 1's aggregation.
	ah *tensor.Matrix
	// boundary lists the rows that received a ghost contribution (the
	// adjacency's BoundaryRows(); nil when there were no ghost features to
	// fold — a single worker, an uncut partition), interior the rest.
	boundary, interior []int32
	// ownedB and ghostB are the owned-column and ghost-column parts of ah's
	// boundary rows, row k ↔ boundary[k].
	ownedB, ghostB *tensor.Matrix
}

// buildLayer1 runs layer 1's aggregation at full feature width — the
// owned-column SpMM over x and the compact ghost fold over the cached ghost
// features — and releases ghostX, whose only consumer this is: the
// first-hop feature cache is replaced by its consumer's output. The fold
// reads ghostX as a plain dense matrix through the oracle kernel (bit-equal
// to the packed kernel over a dense operand, and heap-allocated, so nothing
// retained here lives in the layer arena).
func (w *Worker) buildLayer1() *layer1Agg {
	agg := &layer1Agg{ah: tensor.New(len(w.owned), w.x.Cols)}
	w.adj.SpMMOwnedInto(w.x, agg.ah)
	if ghostB := w.adj.SpMMGhostCompact(w.ghostX); ghostB != nil {
		agg.boundary = w.adj.BoundaryRows()
		agg.ownedB = agg.ah.GatherRows(int32sToInts(agg.boundary))
		agg.ghostB = ghostB
		agg.ah.AddRowsAt(agg.boundary, ghostB)
	}
	agg.interior = make([]int32, 0, len(w.owned)-len(agg.boundary))
	for i, k := 0, 0; i < len(w.owned); i++ {
		if k < len(agg.boundary) && int(agg.boundary[k]) == i {
			k++
			continue
		}
		agg.interior = append(agg.interior, int32(i))
	}
	w.ghostX = nil
	return agg
}

// interiorTimes starts z¹ = ÂX·W: the interior rows, whose aggregation has
// no ghost term. Boundary rows stay zero until foldBoundary.
func (a *layer1Agg) interiorTimes(W *tensor.Matrix) *tensor.Matrix {
	z := tensor.New(a.ah.Rows, W.Cols)
	a.ah.MatMulRowsInto(W, z, a.interior)
	return z
}

// foldBoundary completes z¹ on the boundary rows with the two-term sum
// (Â_owned X)·W + (Â_ghost X)·W, in that order — the float sequence a
// layer's owned product followed by its AddRowsAt ghost fold performs.
func (a *layer1Agg) foldBoundary(z, W *tensor.Matrix) {
	if len(a.boundary) > 0 {
		z.SetRowsAt(a.boundary, a.ownedB.MatMul(W).AddInPlace(a.ghostB.MatMul(W)))
	}
}
