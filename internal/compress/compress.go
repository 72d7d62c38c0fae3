// Package compress implements the paper's lossy message compression
// (§IV-A, Fig. 3): each float32 element of an embedding or gradient matrix
// is mapped into one of 2^B uniform buckets over the matrix's value domain,
// and only the B-bit bucket id travels on the wire, together with the small
// table of bucket values. This cuts the per-element cost from 32 bits to B
// bits — the 32/B factor in Table II.
//
// Bucket ids are packed into 64-bit words. B must divide 64, which holds for
// the paper's bit menu {1, 2, 4, 8, 16}.
package compress

import (
	"fmt"
	"sync"

	"ecgraph/internal/tensor"
)

// packedPool recycles the packed-word buffers of Quantized values released
// with (*Quantized).Release — the hot allocation of every compressed
// exchange. It stores *[]uint64 so Put does not allocate a fresh interface
// box per slice header.
var packedPool sync.Pool

// maxPooledWords bounds pooled buffers (8 MiB) so one huge matrix doesn't
// pin its backing array for the life of the process.
const maxPooledWords = 1 << 20

// wordWork scales a packed word into tensor.ParallelRows' multiply-add work
// units: packing or unpacking one word is a handful of shifts and float ops
// per element, roughly eight MACs' worth, which keeps the parallel/inline
// crossover where it was when the gate counted words directly.
const wordWork = 8

// getPacked returns a zeroed packed buffer of n words, reusing a pooled
// backing array when one is large enough.
func getPacked(n int) []uint64 {
	if v := packedPool.Get(); v != nil {
		s := *(v.(*[]uint64))
		if cap(s) >= n {
			s = s[:n]
			clear(s)
			return s
		}
	}
	return make([]uint64, n)
}

// Release returns q's packed words to the shared pool. The Quantized and
// any value decoded from it by reference must not be used afterwards; call
// it once the matrix has been encoded to the wire or decompressed.
//
// Release always poisons the value — q.Packed is nil'd even when the
// buffer is too large to pool — so a second Release on the same Quantized
// is a guaranteed no-op and can never double-insert the backing array into
// the pool (which would hand the same buffer to two future callers).
// The remaining hazard is releasing through a struct copy that still
// shares the slice header; Block guards the one conversion that aliases
// the words by taking ownership, and tests cover both patterns.
func (q *Quantized) Release() {
	if q == nil || q.Packed == nil {
		return
	}
	s := q.Packed
	q.Packed = nil // poison before pooling: double-release sees nil and stops
	if cap(s) == 0 || cap(s) > maxPooledWords {
		return
	}
	packedPool.Put(&s)
}

// ValidBits is the bit-width menu used by the Bit-Tuner (Alg. 3).
var ValidBits = []int{1, 2, 4, 8, 16}

// IsValidBits reports whether b is an allowed compression width.
func IsValidBits(b int) bool {
	for _, v := range ValidBits {
		if v == b {
			return true
		}
	}
	return false
}

// Quantized is a compressed matrix: bucket ids packed into words plus the
// value domain from which bucket representative values are derived.
type Quantized struct {
	Rows, Cols int
	Bits       int
	Lo, Hi     float32 // value domain [Lo, Hi]
	// ZeroCentered marks the gradient grid of CompressZeroCentered
	// (2^B−1 levels including exactly 0) instead of bucket midpoints.
	ZeroCentered bool
	Packed       []uint64 // ceil(Rows*Cols*Bits/64) words
}

// Compress quantises m with the given bit width, deriving the domain from
// the matrix's own min/max (Alg. 6 line 4: gradients "will not be normalised
// into a unit ball", so the domain must be measured).
func Compress(m *tensor.Matrix, bits int) *Quantized {
	lo, hi := m.MinMax()
	return CompressWithRange(m, bits, lo, hi)
}

// CompressWithRange quantises m over the explicit domain [lo, hi]. Values
// outside the domain are clamped to the boundary buckets.
func CompressWithRange(m *tensor.Matrix, bits int, lo, hi float32) *Quantized {
	q := NewQuantized(m.Rows, m.Cols, bits, lo, hi)
	n := m.Rows * m.Cols
	g := q.Grid()
	perWord := 64 / bits
	// Parallelise over whole packed words: adjacent elements share a word,
	// so splitting mid-word would race on the |= accumulation. Each worker
	// builds its words locally and assigns them. The size gate counts words,
	// not elements — a word is a couple of shifts of work, so small matrices
	// pack faster serially than they can spawn goroutines.
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

// NewQuantized returns a rows×cols quantisation at bits over [lo, hi] whose
// ids are all zero, its words drawn from the pool that Release returns them
// to — the storage CompressWithRange fills, for a caller that packs its own
// ids (Grid.ID) in Packed's layout: element i of the row-major matrix at
// bits i%(64/Bits)·Bits of word i/(64/Bits).
func NewQuantized(rows, cols, bits int, lo, hi float32) *Quantized {
	if !IsValidBits(bits) {
		panic(fmt.Sprintf("compress: invalid bit width %d (allowed %v)", bits, ValidBits))
	}
	return &Quantized{
		Rows: rows, Cols: cols, Bits: bits, Lo: lo, Hi: hi,
		Packed: getPacked(words(rows*cols, bits)),
	}
}

// words is the number of packed words n ids of the given width occupy.
func words(n, bits int) int {
	perWord := 64 / bits
	return (n + perWord - 1) / perWord
}

// TruncateRows shrinks q to its first rows rows, keeping their ids.
func (q *Quantized) TruncateRows(rows int) {
	if rows < 0 || rows > q.Rows {
		panic(fmt.Sprintf("compress: truncate %d rows to %d", q.Rows, rows))
	}
	q.Rows = rows
	q.Packed = q.Packed[:words(rows*q.Cols, q.Bits)]
}

// Grid is the uniform bucket grid of a bucket-quantised (not zero-centred)
// Quantized: 2^B buckets over [Lo, Hi]. It is the one place a bucket id is
// computed from a value (ID, what CompressWithRange packs) and a bucket's
// representative from its id (Value, what Values — and through it
// DecompressInto and the Blocked LUTs — decode to), so a
// caller that fuses quantisation into its own walk packs and decodes exactly
// what those functions do.
type Grid struct {
	lo, scale, width float32
	// top is the largest id: 2^B − 1, or 0 when the domain's span is zero
	// or negative, which puts every value in bucket 0 whatever the
	// arithmetic gives. flatValues marks a domain with Hi ≤ Lo, which
	// decodes every id to Lo; the two differ only when both ends are the
	// same infinity (the span is NaN).
	top        int
	flatValues bool
}

// Grid returns q's bucket grid.
func (q *Quantized) Grid() Grid {
	buckets := 1 << q.Bits
	span := q.Hi - q.Lo
	g := Grid{
		lo:         q.Lo,
		scale:      float32(buckets) / span,
		width:      span / float32(buckets),
		top:        buckets - 1,
		flatValues: q.Hi <= q.Lo,
	}
	if span <= 0 {
		g.top = 0
	}
	return g
}

// ID returns the bucket of x, clamping values outside the domain to the
// boundary buckets.
func (g *Grid) ID(x float32) int {
	b := int((x - g.lo) * g.scale)
	if b < 0 {
		return 0
	}
	if b > g.top {
		return g.top
	}
	return b
}

// Value returns the representative value of bucket id: its midpoint.
func (g *Grid) Value(id int) float32 {
	if g.flatValues {
		return g.lo
	}
	return g.lo + (float32(id)+0.5)*g.width
}

// Values returns the representative value of every bucket/level id — the
// decode table of q — in dst's storage when it holds 2^Bits values.
func (q *Quantized) Values(dst []float32) []float32 {
	n := 1 << q.Bits
	if cap(dst) < n {
		dst = make([]float32, n)
	}
	dst = dst[:n]
	if q.ZeroCentered {
		g := q.ZeroGrid()
		for id := range dst {
			dst[id] = g.Value(id)
		}
		return dst
	}
	g := q.Grid()
	for id := range dst {
		dst[id] = g.Value(id)
	}
	return dst
}

// Decompress reconstructs the matrix, replacing each element with its
// bucket's representative value.
func (q *Quantized) Decompress() *tensor.Matrix {
	return q.DecompressInto(tensor.New(q.Rows, q.Cols))
}

// DecompressInto is Decompress into caller-owned storage — arena scratch or
// a responder's persistent buffer — so the remaining decode paths
// (exact-sync, checkpoint rehydrate, EC residual updates) stop allocating.
// dst must be Rows×Cols; every element is overwritten. Returns dst.
func (q *Quantized) DecompressInto(dst *tensor.Matrix) *tensor.Matrix {
	if dst.Rows != q.Rows || dst.Cols != q.Cols {
		panic(fmt.Sprintf("compress: DecompressInto %dx%d into %dx%d",
			q.Rows, q.Cols, dst.Rows, dst.Cols))
	}
	out := dst
	n := q.Rows * q.Cols
	if n == 0 {
		return out
	}
	perWord := 64 / q.Bits
	mask := uint64(1)<<uint(q.Bits) - 1
	// Precompute the bucket value table (the paper sends this table on the
	// wire; we rebuild it from the domain on both ends).
	table := q.Values(nil)
	bits := uint(q.Bits)
	tensor.ParallelRows(len(q.Packed), len(q.Packed)*wordWork, func(wlo, whi int) {
		for w := wlo; w < whi; w++ {
			word := q.Packed[w]
			base := w * perWord
			end := base + perWord
			if end > n {
				end = n
			}
			for i := base; i < end; i++ {
				out.Data[i] = table[(word>>(uint(i-base)*bits))&mask]
			}
		}
	})
	return out
}

// WireBytes returns the number of bytes this message occupies on the wire:
// packed ids, the 2^B-entry float32 bucket table, and a fixed header
// (shape, bits, domain). This is the quantity the communication model
// charges for.
func (q *Quantized) WireBytes() int {
	const header = 4 + 4 + 2 + 4 + 4 // rows, cols, bits, lo, hi
	n := q.Rows * q.Cols
	idBytes := (n*q.Bits + 7) / 8
	tableBytes := (1 << q.Bits) * 4
	return header + idBytes + tableBytes
}

// RawWireBytes returns the uncompressed wire size of a rows×cols float32
// matrix plus the same fixed header, for compression-ratio accounting.
func RawWireBytes(rows, cols int) int {
	const header = 4 + 4
	return header + rows*cols*4
}

// MaxAbsError returns the worst-case absolute reconstruction error of q's
// configuration: half a bucket width. Useful for tests of the α-contraction
// property (Eq. 13).
func (q *Quantized) MaxAbsError() float32 {
	if q.Hi <= q.Lo {
		return 0
	}
	if q.ZeroCentered {
		levels := (1 << q.Bits) - 1
		if q.Bits == 1 {
			levels = 2
		}
		return (q.Hi - q.Lo) / float32(levels-1) / 2
	}
	return (q.Hi - q.Lo) / float32(int(1)<<q.Bits) / 2
}
