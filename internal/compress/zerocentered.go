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
	g := q.ZeroGrid()
	// Word-parallel packing, same scheme as CompressWithRange: elements
	// sharing a packed word stay on one worker, and the size gate counts
	// words so small matrices stay serial.
	tensor.ParallelRows(len(q.Packed), len(q.Packed)*wordWork, func(wlo, whi int) {
		g := g // the band's own copy: the loop keeps its fields in registers
		for w := wlo; w < whi; w++ {
			base := w * perWord
			end := base + perWord
			if end > n {
				end = n
			}
			var word uint64
			for i := base; i < end; i++ {
				word |= uint64(g.ID(m.Data[i])) << (uint(i-base) * uint(bits))
			}
			q.Packed[w] = word
		}
	})
	return q
}

// ZeroGrid is the level grid of a zero-centred Quantized: 2^B−1 uniform
// levels over [Lo, Hi] = [−a, +a] whose middle level is exactly 0, or the
// sign grid {−a, +a} at B = 1. It is the one place a level id is computed
// from a value (ID, what CompressZeroCentered packs) and a level's value from
// its id (Value, what Values — and through it DecompressInto and the Blocked
// LUTs — decode to), so a caller that fuses quantisation into its own walk
// packs and decodes exactly what those functions do.
type ZeroGrid struct {
	lo, step float32
	// levels is the level count, mid the id of the zero level (levels/2;
	// unused at B = 1, whose values count from lo). flat marks a domain with
	// Hi ≤ Lo, where every id decodes to 0 and every value encodes to 0.
	levels, mid int
	sign, flat  bool
}

// ZeroGrid returns q's zero-centred level grid.
func (q *Quantized) ZeroGrid() ZeroGrid {
	levels := (1 << q.Bits) - 1 // odd ⇒ the middle level is exactly 0
	if q.Bits == 1 {
		levels = 2 // {−a, +a}: sign quantisation, no zero level
	}
	return ZeroGrid{
		lo:     q.Lo,
		step:   (q.Hi - q.Lo) / float32(levels-1),
		levels: levels,
		mid:    levels / 2,
		sign:   q.Bits == 1,
		flat:   q.Hi <= q.Lo,
	}
}

// ID returns the level nearest x, clamping values outside the domain to the
// end levels.
func (g *ZeroGrid) ID(x float32) int {
	if g.flat {
		return 0
	}
	id := int((x-g.lo)/g.step + 0.5)
	if id < 0 {
		return 0
	}
	if id >= g.levels {
		return g.levels - 1
	}
	return id
}

// Value returns the representative of level id. Levels count from the
// middle so that level mid is exactly +0 at every width; the product is
// rounded to float32 before the caller adds it to anything.
func (g *ZeroGrid) Value(id int) float32 {
	switch {
	case g.flat:
		return 0
	case g.sign:
		return g.lo + float32(id)*g.step // {−a, +a}: no zero level
	}
	return float32(float32(id-g.mid) * g.step)
}
