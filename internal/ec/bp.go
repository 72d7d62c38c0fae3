package ec

import (
	"fmt"

	"ecgraph/internal/compress"
	"ecgraph/internal/tensor"
	"ecgraph/internal/transport"
)

// BackwardResponder holds the responding-end state of ResEC-BP for one
// (layer, requester) pair: the residual δ of the previous iteration's
// quantisation, added back before compressing the next round (Eqs. 11-12,
// Alg. 6). This is classic error feedback applied to embedding gradients.
type BackwardResponder struct {
	delta *tensor.Matrix // δ^{l,t−1}; nil until the first response

	// Hot-path scratch, reused across iterations and reallocated only when
	// the gradient shape changes (topology rebuild): the compensated sum
	// g + δ and the decode of its quantisation. Respond runs once per
	// (layer, requester) per epoch on the serving worker's RPC path, so
	// with these the steady-state response allocates only the wire buffer.
	cpt *tensor.Matrix
	dec *tensor.Matrix
}

// NewBackwardResponder returns fresh responder state (δ = 0).
func NewBackwardResponder() *BackwardResponder { return &BackwardResponder{} }

// Respond compensates the gradient rows g with the stored residual,
// compresses the sum with the given bit width over its measured symmetric
// domain (Alg. 6 line 4: gradients are not normalised into a unit ball),
// updates δ per Eq. 11 and returns the wire payload. The zero-centred
// gradient grid is used rather than bucket midpoints: loss gradients are
// zero outside the training vertices, and a grid without an exact zero
// level makes the error feedback oscillate on those rows (see
// compress.CompressZeroCentered).
func (r *BackwardResponder) Respond(g *tensor.Matrix, bits int) []byte {
	// The elementwise loops compute exactly what g.Add(δ) / cpt.Sub(dec)
	// did, in the same index order — payloads and residuals stay bitwise
	// identical to the allocating form.
	cpt := g
	if r.delta != nil {
		if r.delta.Rows != g.Rows || r.delta.Cols != g.Cols {
			panic(fmt.Sprintf("ec: Respond %dx%d gradient against %dx%d residual",
				g.Rows, g.Cols, r.delta.Rows, r.delta.Cols))
		}
		if r.cpt == nil || r.cpt.Rows != g.Rows || r.cpt.Cols != g.Cols {
			r.cpt = tensor.New(g.Rows, g.Cols)
		}
		cd, dd := r.cpt.Data, r.delta.Data
		for i, x := range g.Data {
			cd[i] = x + dd[i]
		}
		cpt = r.cpt
	}
	q := compress.CompressZeroCentered(cpt, bits) // M = C_bit[g + δ] (Eq. 12)
	if r.dec == nil || r.dec.Rows != g.Rows || r.dec.Cols != g.Cols {
		r.dec = tensor.New(g.Rows, g.Cols)
	}
	q.DecompressInto(r.dec)
	if r.delta == nil || r.delta.Rows != g.Rows || r.delta.Cols != g.Cols {
		r.delta = tensor.New(g.Rows, g.Cols)
	}
	ld, xd := r.delta.Data, r.dec.Data
	for i, c := range cpt.Data { // δ = (g + δ_prev) − C[g + δ_prev] (Eq. 11)
		ld[i] = c - xd[i]
	}

	w := transport.NewWriter(1 + transport.QuantizedSize(q))
	w.Byte(schemeCompress)
	w.Quantized(q)
	q.Release()
	return w.Bytes()
}

// Residual returns the current residual matrix δ (nil before the first
// response); read-only, for diagnostics like the Theorem 1 trace.
func (r *BackwardResponder) Residual() *tensor.Matrix { return r.delta }

// Reset zeroes the error-feedback residual (δ = 0). After a respawn or
// rollback the stored residual compensates for quantisation errors of
// gradients that no longer exist in the replayed trajectory; restoring it
// would inject stale error feedback, so it is deliberately discarded.
func (r *BackwardResponder) Reset() { r.delta = nil }

// ResidualRow returns a copy of row i of δ, or nil when no residual has
// accumulated yet. Used by elastic state handoff: when a vertex changes
// owners, its accumulated quantisation error moves with it so the error
// feedback loop for that (vertex, requester) pair continues rather than
// restarting from zero.
func (r *BackwardResponder) ResidualRow(i int) []float32 {
	if r.delta == nil || i < 0 || i >= r.delta.Rows {
		return nil
	}
	return append([]float32(nil), r.delta.Row(i)...)
}

// SeedResidualRow installs row into position i of a (rows, cols)-shaped
// residual, allocating δ as zeros first if the responder has never
// responded — the import half of the handoff. Rows not seeded stay zero,
// which is exactly the fresh-responder state they would have anyway.
func (r *BackwardResponder) SeedResidualRow(rows, cols, i int, row []float32) {
	if i < 0 || i >= rows || len(row) != cols {
		panic(fmt.Sprintf("ec: seed residual row %d of (%d,%d) with %d values", i, rows, cols, len(row)))
	}
	if r.delta == nil {
		r.delta = tensor.New(rows, cols)
	}
	if r.delta.Rows != rows || r.delta.Cols != cols {
		// A residual of a different shape describes a pair list that no
		// longer exists (the requester's needs changed with the topology);
		// keeping it would misalign every row, so start over.
		r.delta = tensor.New(rows, cols)
	}
	copy(r.delta.Row(i), row)
}

// TopKResponder is the Top-K-with-memory alternative to BackwardResponder
// (Stich et al., the paper's reference [32]): the same error-feedback loop,
// but the compressor keeps the k largest-magnitude elements of g + δ
// instead of quantising all of them. k is chosen to match the byte budget
// of B-bit quantisation, so the two compensate arms are directly
// comparable.
type TopKResponder struct {
	Bits  int // byte-budget reference
	delta *tensor.Matrix
}

// NewTopKResponder returns fresh responder state budgeted against bits.
func NewTopKResponder(bits int) *TopKResponder {
	if !compress.IsValidBits(bits) {
		panic(fmt.Sprintf("ec: invalid budget bits %d", bits))
	}
	return &TopKResponder{Bits: bits}
}

// Respond compensates g with the stored residual, sparsifies, updates δ and
// returns the wire payload.
func (r *TopKResponder) Respond(g *tensor.Matrix) []byte {
	cpt := g
	if r.delta != nil {
		cpt = g.Add(r.delta)
	}
	k := compress.KForBudget(len(cpt.Data), r.Bits)
	s := compress.TopK(cpt, k)
	r.delta = cpt.Sub(s.Dense())

	w := transport.NewWriter(1 + s.WireBytes())
	w.Byte(schemeSparse)
	w.Sparse(s)
	return w.Bytes()
}

// Reset zeroes the error-feedback memory, like BackwardResponder.Reset.
func (r *TopKResponder) Reset() { r.delta = nil }

// ResidualNorm returns ‖δ‖₂, the quantity Theorem 1 bounds.
func (r *BackwardResponder) ResidualNorm() float64 {
	if r.delta == nil {
		return 0
	}
	return r.delta.FrobeniusNorm()
}

// RespondCompressOnly quantises m without compensation (the paper's Cp-fp
// ablation arm; bucket quantiser of Fig. 3).
func RespondCompressOnly(m *tensor.Matrix, bits int) []byte {
	q := compress.Compress(m, bits)
	w := transport.NewWriter(1 + transport.QuantizedSize(q))
	w.Byte(schemeCompress)
	w.Quantized(q)
	q.Release()
	return w.Bytes()
}

// RespondCompressOnlyGrad quantises gradient rows without compensation
// (the Cp-bp arm) on the same zero-centred grid ResEC uses, so the
// ablation isolates the compensation rather than the grid.
func RespondCompressOnlyGrad(m *tensor.Matrix, bits int) []byte {
	q := compress.CompressZeroCentered(m, bits)
	w := transport.NewWriter(1 + transport.QuantizedSize(q))
	w.Byte(schemeCompress)
	w.Quantized(q)
	q.Release()
	return w.Bytes()
}

// RespondRaw ships m uncompressed (the Non-cp arm).
func RespondRaw(m *tensor.Matrix) []byte {
	w := transport.NewWriter(9 + len(m.Data)*4)
	w.Byte(schemeRaw)
	w.Matrix(m)
	return w.Bytes()
}

// ParseMatrix decodes a payload produced by RespondRaw, RespondCompressOnly
// or BackwardResponder.Respond.
func ParseMatrix(payload []byte) *tensor.Matrix {
	r := transport.NewReader(payload)
	switch scheme := r.Byte(); scheme {
	case schemeRaw:
		return r.Matrix()
	case schemeCompress:
		return decompressReleasing(r)
	case schemeSparse:
		return r.Sparse().Dense()
	default:
		panic(fmt.Sprintf("ec: unexpected matrix scheme %d", scheme))
	}
}

// ParsePacked decodes the same payloads as ParseMatrix but keeps a purely
// quantised matrix (the Cp-fp/Cp-bp and ResEC-BP wire format) in the packed
// block layout for quantised-domain compute — no decode pass, no float
// materialisation. Exactly one of the results is non-nil: raw and sparse
// payloads carry no packed words and come back dense.
func ParsePacked(payload []byte) (*tensor.Matrix, *compress.Blocked) {
	r := transport.NewReader(payload)
	switch scheme := r.Byte(); scheme {
	case schemeRaw:
		return r.Matrix(), nil
	case schemeCompress:
		return nil, r.Quantized().Block()
	case schemeSparse:
		return r.Sparse().Dense(), nil
	default:
		panic(fmt.Sprintf("ec: unexpected matrix scheme %d", scheme))
	}
}
