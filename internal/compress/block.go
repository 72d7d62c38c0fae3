// Block-quantised layout: the receiver-side view of a wire Quantized that
// compute kernels consume without a decode pass. The packed words are
// reinterpreted as fixed BlockRows-row blocks, each carrying its own bucket
// value table (LUT of 2^B float32 entries), so a SpMM kernel dequantises
// elements on register — lut[id] per multiply-add — instead of
// materialising a float32 ghost matrix first.
//
// Bitwise contract: every LUT entry equals Quantized.Values(nil)[id], the
// exact value Decompress writes, so any kernel that reads elements through
// a Blocked in the same order a decoded matrix would have been read
// produces bit-identical float32 results to decode-then-compute.
package compress

import (
	"fmt"

	"ecgraph/internal/tensor"
)

// BlockRows is the fixed row-block granularity of the packed layout
// (llama.go's QK): LUT and range metadata are tracked per BlockRows rows.
// Wire payloads carry one global domain today, so every block of a
// converted Quantized shares one LUT; the layout leaves room for per-block
// ranges without changing any consumer.
const BlockRows = 32

// Blocked is a block-quantised matrix ready for packed-domain compute.
// It owns the packed words of the Quantized it was converted from.
type Blocked struct {
	Rows, Cols int
	Bits       int
	// Words holds the packed bucket ids, row-major, 64/Bits ids per word;
	// elements never straddle words (inherited from the wire layout).
	Words []uint64
	// luts[b] is the bucket value table of row block b (rows
	// [b*BlockRows, (b+1)*BlockRows)); entries may alias a shared table.
	luts [][]float32
}

// Block converts q to the block-quantised layout in place: no id is
// repacked and no float row is materialised — only the per-block LUTs are
// built. Block takes ownership of q.Packed (q is poisoned exactly as
// Release poisons it), so a later q.Release is a harmless no-op and the
// words can never land in the pool while the Blocked still reads them.
func (q *Quantized) Block() *Blocked {
	if !IsValidBits(q.Bits) {
		panic(fmt.Sprintf("compress: Block on invalid bit width %d", q.Bits))
	}
	b := &Blocked{
		Rows:  q.Rows,
		Cols:  q.Cols,
		Bits:  q.Bits,
		Words: q.Packed,
		luts:  make([][]float32, (q.Rows+BlockRows-1)/BlockRows),
	}
	q.Packed = nil // ownership moves; see Release
	// One global domain on the wire → one shared table, aliased per block.
	lut := q.Values(nil)
	for i := range b.luts {
		b.luts[i] = lut
	}
	return b
}

// AccumRow accumulates w times row r into dst (dst[j] += w·row[j]),
// dequantising on register through the block's LUT. This is the packed SpMM
// inner loop: whole packed words are consumed by the unrolled constant-shift
// kernels (blockwords.go) — one word load feeding 64/Bits independent
// multiply-adds — with an element-at-a-time walk only on unaligned
// head/tail spans and for Bits = 16. No decoded row is ever materialised,
// and the element order — hence the float32 result — is identical to
// decode-then-accumulate.
func (b *Blocked) AccumRow(dst []float32, w float32, r int) {
	dst = dst[:b.Cols]
	lut := b.luts[r/BlockRows]
	e := r * b.Cols
	if b.Bits == 16 {
		b.accumGeneric(dst, w, e, lut)
		return
	}
	perWord := 64 / b.Bits
	j := 0
	if h := e % perWord; h != 0 {
		// Leading elements up to the next word boundary.
		j = perWord - h
		if j > len(dst) {
			j = len(dst)
		}
		b.accumGeneric(dst[:j], w, e, lut)
	}
	wi := (e + j) / perWord
	words := b.Words
	switch b.Bits {
	case 1:
		for ; j+64 <= len(dst); j, wi = j+64, wi+1 {
			accumWord1(dst[j:], w, words[wi], lut)
		}
	case 2:
		for ; j+32 <= len(dst); j, wi = j+32, wi+1 {
			accumWord2(dst[j:], w, words[wi], lut)
		}
	case 4:
		for ; j+16 <= len(dst); j, wi = j+16, wi+1 {
			accumWord4(dst[j:], w, words[wi], lut)
		}
	case 8:
		for ; j+8 <= len(dst); j, wi = j+8, wi+1 {
			accumWord8(dst[j:], w, words[wi], lut)
		}
	}
	if j < len(dst) {
		b.accumGeneric(dst[j:], w, e+j, lut)
	}
}

// accumGeneric accumulates global elements [e, e+len(dst)) into dst one id
// at a time — the Bits = 16 path and the unaligned head/tail of the word
// walk.
func (b *Blocked) accumGeneric(dst []float32, w float32, e int, lut []float32) {
	if len(dst) == 0 {
		return
	}
	bits := uint(b.Bits)
	perWord := 64 / b.Bits
	mask := uint64(1)<<bits - 1
	wi := e / perWord
	sh := uint(e%perWord) * bits
	word := b.Words[wi]
	for j := range dst {
		if sh == 64 {
			wi++
			word = b.Words[wi]
			sh = 0
		}
		dst[j] += w * lut[(word>>sh)&mask]
		sh += bits
	}
}

// dequantSpan decodes global elements [e, e+len(dst)) into dst, all under
// one LUT: whole words through the unrolled constant-shift kernels, the
// unaligned head and tail (and Bits = 16) one id at a time.
func (b *Blocked) dequantSpan(dst []float32, e int, lut []float32) {
	if b.Bits == 16 {
		b.dequantGeneric(dst, e, lut)
		return
	}
	perWord := 64 / b.Bits
	j := 0
	if h := e % perWord; h != 0 {
		j = min(perWord-h, len(dst))
		b.dequantGeneric(dst[:j], e, lut)
	}
	wi := (e + j) / perWord
	words := b.Words
	switch b.Bits {
	case 1:
		for ; j+64 <= len(dst); j, wi = j+64, wi+1 {
			dequantWord1(dst[j:], words[wi], lut)
		}
	case 2:
		for ; j+32 <= len(dst); j, wi = j+32, wi+1 {
			dequantWord2(dst[j:], words[wi], lut)
		}
	case 4:
		for ; j+16 <= len(dst); j, wi = j+16, wi+1 {
			dequantWord4(dst[j:], words[wi], lut)
		}
	case 8:
		for ; j+8 <= len(dst); j, wi = j+8, wi+1 {
			dequantWord8(dst[j:], words[wi], lut)
		}
	}
	if j < len(dst) {
		b.dequantGeneric(dst[j:], e+j, lut)
	}
}

// dequantGeneric decodes global elements [e, e+len(dst)) into dst one id at
// a time.
func (b *Blocked) dequantGeneric(dst []float32, e int, lut []float32) {
	if len(dst) == 0 {
		return
	}
	bits := uint(b.Bits)
	perWord := 64 / b.Bits
	mask := uint64(1)<<bits - 1
	wi := e / perWord
	sh := uint(e%perWord) * bits
	word := b.Words[wi]
	for j := range dst {
		if sh == 64 {
			wi++
			word = b.Words[wi]
			sh = 0
		}
		dst[j] = lut[(word>>sh)&mask]
		sh += bits
	}
}

// DequantRowsInto decodes rows [lo, hi) contiguously into dst
// (len ≥ (hi−lo)·Cols), each block's rows as one span of elements, so rows
// narrower than a packed word still decode a whole word at a time.
func (b *Blocked) DequantRowsInto(lo, hi int, dst []float32) {
	for lo < hi {
		end := min(hi, (lo/BlockRows+1)*BlockRows)
		n := (end - lo) * b.Cols
		b.dequantSpan(dst[:n], lo*b.Cols, b.luts[lo/BlockRows])
		dst, lo = dst[n:], end
	}
}

// Dense materialises the full matrix — the cold-path escape hatch for
// consumers that need float rows (degraded fallback, state handoff).
func (b *Blocked) Dense() *tensor.Matrix {
	out := tensor.New(b.Rows, b.Cols)
	if b.Rows > 0 {
		b.DequantRowsInto(0, b.Rows, out.Data)
	}
	return out
}
