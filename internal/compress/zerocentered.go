package compress

import (
	"fmt"

	"ecgraph/internal/tensor"
)

// Zero-centered level quantisation for gradients.
//
// The bucket quantiser of Fig. 3 reconstructs every element as a bucket
// midpoint, so an exact zero comes back as a small non-zero value. Embedding
// gradients are near-sparse (loss gradients are zero outside the training
// vertices), and under error feedback that systematic offset on the zeros
// oscillates instead of vanishing — at 2 bits it can destroy convergence.
// CompressZeroCentered therefore quantises onto 2^B−1 uniformly spaced
// levels over the symmetric domain [−max|x|, +max|x|]; the level count is
// odd, so the middle level mid = 2^(B−1)−1 is 0 (the standard QSGD-style
// gradient grid). Level ids still pack into B bits. Zeros round-trip
// losslessly at every B ≥ 2 by construction: a zero element encodes to mid,
// and level id decodes as (id − mid)·step, which is +0 at id = mid whatever
// the scale — not as Lo + id·step, which rounds back to 0 only at B = 2.
// B = 1 has no zero level at all (see below): a zero comes back as ±a.

// CompressZeroCentered quantises m onto the zero-centred level grid. At
// B = 1 the grid degenerates to sign quantisation {−a, +a}; there the scale
// a is the mean absolute value (the 1-bit-SGD optimum, which keeps the
// quantiser an L2-contraction) rather than max |x|, which would make it an
// expansion on peaked data and break error feedback.
func CompressZeroCentered(m *tensor.Matrix, bits int) *Quantized {
	if !IsValidBits(bits) {
		panic(fmt.Sprintf("compress: invalid bit width %d (allowed %v)", bits, ValidBits))
	}
	mx := m.MaxAbs()
	if bits == 1 && len(m.Data) > 0 {
		mx = float32(m.AbsSum() / float64(len(m.Data)))
	}
	n := m.Rows * m.Cols
	perWord := 64 / bits
	q := NewQuantized(m.Rows, m.Cols, bits, -mx, mx)
	q.ZeroCentered = true
	if n == 0 || mx == 0 {
		// All zeros: every id is 0, which decodes to 0 (Hi ≤ Lo).
		return q
	}
	levels := (1 << bits) - 1 // odd ⇒ the middle level is exactly 0
	if bits == 1 {
		levels = 2 // {−mx, +mx}: sign quantisation, no zero level
	}
	step := 2 * mx / float32(levels-1)
	// Word-parallel packing, same scheme as CompressWithRange: elements
	// sharing a packed word stay on one worker, and the size gate counts
	// words so small matrices stay serial.
	tensor.ParallelRows(len(q.Packed), len(q.Packed)*wordWork, func(wlo, whi int) {
		for w := wlo; w < whi; w++ {
			base := w * perWord
			end := base + perWord
			if end > n {
				end = n
			}
			var word uint64
			for i := base; i < end; i++ {
				id := int((m.Data[i]+mx)/step + 0.5)
				if id < 0 {
					id = 0
				} else if id >= levels {
					id = levels - 1
				}
				word |= uint64(id) << (uint(i-base) * uint(bits))
			}
			q.Packed[w] = word
		}
	})
	return q
}

// zeroCenteredValue returns the representative of level id for a
// zero-centred Quantized — the one decode site (BucketValue and Values, and
// through Values DecompressInto's table and the Blocked LUTs). Levels count
// from the middle so that level mid is exactly +0 at every width.
func (q *Quantized) zeroCenteredValue(id int) float32 {
	if q.Hi <= q.Lo {
		return 0
	}
	if q.Bits == 1 {
		return q.Lo + float32(id)*(q.Hi-q.Lo) // {−a, +a}: no zero level
	}
	levels := (1 << q.Bits) - 1
	step := (q.Hi - q.Lo) / float32(levels-1)
	return float32(id-levels/2) * step
}
