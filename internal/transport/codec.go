// Package transport carries the messages EC-Graph exchanges between
// workers and servers.
//
// The paper uses gRPC + protobuf between physical machines. This package
// substitutes a compact hand-rolled binary codec (this file) and two
// interchangeable Network implementations: an in-process one that executes
// handlers directly while counting every wire byte (network.go) — the
// counters drive the simulated Gigabit-Ethernet cost model (cost.go) — and
// a real TCP implementation over stdlib net (tcp.go) proving the protocol
// runs across sockets. Compression claims are about bytes on the wire, and
// both implementations serialise through the same codec, so the byte counts
// are identical either way.
package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"ecgraph/internal/compress"
	"ecgraph/internal/tensor"
)

// Writer appends binary values to a growing buffer (little-endian).
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

var writerPool = sync.Pool{New: func() any { return &Writer{} }}

// maxPooledWriter bounds the buffers the pool retains; one giant payload
// shouldn't pin its backing array for the life of the process.
const maxPooledWriter = 1 << 22 // 4 MiB

// GetWriter returns a pooled Writer with at least the given capacity.
// Release it with (*Writer).Release once its Bytes are no longer needed;
// Bytes returned by a pooled Writer alias its buffer and become invalid at
// Release.
func GetWriter(capacity int) *Writer {
	w := writerPool.Get().(*Writer)
	w.buf = w.buf[:0]
	if cap(w.buf) < capacity {
		w.buf = make([]byte, 0, capacity)
	}
	return w
}

// Release returns the Writer to the pool. The Writer and any slice obtained
// from Bytes must not be used afterwards.
func (w *Writer) Release() {
	if cap(w.buf) > maxPooledWriter {
		return
	}
	writerPool.Put(w)
}

// Bytes returns the accumulated buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Byte appends a single byte.
func (w *Writer) Byte(v byte) { w.buf = append(w.buf, v) }

// Uint32 appends a little-endian uint32.
func (w *Writer) Uint32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// Uint64 appends a little-endian uint64.
func (w *Writer) Uint64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// Int32 appends a little-endian int32.
func (w *Writer) Int32(v int32) { w.Uint32(uint32(v)) }

// Float32 appends a little-endian float32.
func (w *Writer) Float32(v float32) { w.Uint32(math.Float32bits(v)) }

// float32s appends the raw little-endian data of v, growing the buffer once.
func (w *Writer) float32s(v []float32) {
	off := len(w.buf)
	w.buf = slices.Grow(w.buf, 4*len(v))[:off+4*len(v)]
	dst := w.buf[off:]
	for i, x := range v {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(x))
	}
}

// Float32s appends a length-prefixed float32 slice.
func (w *Writer) Float32s(v []float32) {
	w.Uint32(uint32(len(v)))
	w.float32s(v)
}

// Float64 appends a little-endian float64.
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// Float64s appends a length-prefixed float64 slice — full-precision state
// like Adam moments, where a float32 round trip would break bitwise
// replica equivalence.
func (w *Writer) Float64s(v []float64) {
	w.Uint32(uint32(len(v)))
	for _, x := range v {
		w.Float64(x)
	}
}

// Int32s appends a length-prefixed int32 slice.
func (w *Writer) Int32s(v []int32) {
	w.Uint32(uint32(len(v)))
	for _, x := range v {
		w.Int32(x)
	}
}

// Uint8s appends a length-prefixed byte slice.
func (w *Writer) Uint8s(v []byte) {
	w.Uint32(uint32(len(v)))
	w.buf = append(w.buf, v...)
}

// Matrix appends a dense matrix (shape + raw float32 data).
func (w *Writer) Matrix(m *tensor.Matrix) {
	w.Uint32(uint32(m.Rows))
	w.Uint32(uint32(m.Cols))
	w.float32s(m.Data)
}

// Quantized appends a compressed matrix: shape, bits, domain and packed ids,
// QuantizedSize(q) bytes. Its encoded size matches Quantized.WireBytes
// within the constant bucket table (which we reconstruct from the domain
// instead of shipping). This is where a quantised matrix goes on the wire,
// so it is what the compress package's codec counters count.
func (w *Writer) Quantized(q *compress.Quantized) {
	compress.CountWire(q)
	w.Uint32(uint32(q.Rows))
	w.Uint32(uint32(q.Cols))
	w.Byte(byte(q.Bits))
	if q.ZeroCentered {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
	w.Float32(q.Lo)
	w.Float32(q.Hi)
	w.Uint32(uint32(len(q.Packed)))
	for _, word := range q.Packed {
		w.Uint64(word)
	}
}

// QuantizedSize returns the number of bytes Writer.Quantized appends for q.
func QuantizedSize(q *compress.Quantized) int { return 22 + 8*len(q.Packed) }

// Sparse appends a Top-K sparsified matrix: shape plus (index, value)
// pairs for the kept elements.
func (w *Writer) Sparse(s *compress.Sparse) {
	w.Uint32(uint32(s.Rows))
	w.Uint32(uint32(s.Cols))
	w.Uint32(uint32(len(s.Idx)))
	for i, id := range s.Idx {
		w.Int32(id)
		w.Float32(s.Val[i])
	}
}

// Reader consumes binary values written by Writer. A read past the end of
// the buffer panics with a descriptive message, which every caller that
// sees network bytes turns into an error (worker.Handler, the ghost decode
// paths, ps.ApplyReplica). Counts read off the wire are checked against the
// bytes that remain before anything is allocated from them, so a corrupted
// frame costs at most a small multiple of its own length.
type Reader struct {
	buf []byte
	off int
}

// NewReader wraps buf for reading.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) need(n int) {
	if n < 0 || n > len(r.buf)-r.off {
		panic(fmt.Sprintf("transport: short read: need %d bytes at offset %d of %d", n, r.off, len(r.buf)))
	}
}

// take checks that count elements of size bytes each remain — without
// overflowing on a hostile count — and returns them, advancing the offset.
func (r *Reader) take(count, size int) []byte {
	if count < 0 || count > (len(r.buf)-r.off)/size {
		panic(fmt.Sprintf("transport: short read: need %d x %d bytes at offset %d of %d", count, size, r.off, len(r.buf)))
	}
	b := r.buf[r.off : r.off+count*size]
	r.off += count * size
	return b
}

// float32s decodes n raw float32 values.
func (r *Reader) float32s(n int) []float32 {
	src := r.take(n, 4)
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return out
}

// Byte reads a single byte.
func (r *Reader) Byte() byte {
	r.need(1)
	v := r.buf[r.off]
	r.off++
	return v
}

// Uint32 reads a little-endian uint32.
func (r *Reader) Uint32() uint32 {
	r.need(4)
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// Uint64 reads a little-endian uint64.
func (r *Reader) Uint64() uint64 {
	r.need(8)
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Int32 reads a little-endian int32.
func (r *Reader) Int32() int32 { return int32(r.Uint32()) }

// Float32 reads a little-endian float32.
func (r *Reader) Float32() float32 { return math.Float32frombits(r.Uint32()) }

// Float32s reads a length-prefixed float32 slice.
func (r *Reader) Float32s() []float32 {
	return r.float32s(int(r.Uint32()))
}

// Float64 reads a little-endian float64.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Float64s reads a length-prefixed float64 slice.
func (r *Reader) Float64s() []float64 {
	src := r.take(int(r.Uint32()), 8)
	out := make([]float64, len(src)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return out
}

// Int32s reads a length-prefixed int32 slice.
func (r *Reader) Int32s() []int32 {
	src := r.take(int(r.Uint32()), 4)
	out := make([]int32, len(src)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return out
}

// Uint8s reads a length-prefixed byte slice (copied out of the buffer).
func (r *Reader) Uint8s() []byte {
	return slices.Clone(r.take(int(r.Uint32()), 1))
}

// elems returns rows*cols, or a count no buffer holds when the product
// overflows, so that the length check that follows fails.
func elems(rows, cols int) int {
	if cols != 0 && rows > math.MaxInt/cols {
		return math.MaxInt
	}
	return rows * cols
}

// Matrix reads a dense matrix.
func (r *Reader) Matrix() *tensor.Matrix {
	rows := int(r.Uint32())
	cols := int(r.Uint32())
	return tensor.FromSlice(rows, cols, r.float32s(elems(rows, cols)))
}

// Sparse reads a Top-K sparsified matrix. The shape is checked against the
// kept count: Top-K keeps at least one element in 64 (compress.KForBudget
// at B = 1), so a sparser header is corrupt — and Dense would allocate its
// whole shape from it.
func (r *Reader) Sparse() *compress.Sparse {
	s := &compress.Sparse{}
	s.Rows = int(r.Uint32())
	s.Cols = int(r.Uint32())
	src := r.take(int(r.Uint32()), 8)
	k := len(src) / 8
	if elems(s.Rows, s.Cols)/64 > k {
		panic(fmt.Sprintf("transport: sparse %dx%d matrix with %d kept elements", s.Rows, s.Cols, k))
	}
	s.Idx = make([]int32, k)
	s.Val = make([]float32, k)
	for i := range s.Idx {
		s.Idx[i] = int32(binary.LittleEndian.Uint32(src[8*i:]))
		s.Val[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[8*i+4:]))
	}
	return s
}

// Quantized reads a compressed matrix. Width and word count are checked
// against the shape, so whatever is decoded from the result (Decompress,
// Block) allocates in proportion to the bytes that arrived.
func (r *Reader) Quantized() *compress.Quantized {
	q, src := r.QuantizedWords()
	q.Packed = make([]uint64, len(src)/8)
	for i := range q.Packed {
		q.Packed[i] = binary.LittleEndian.Uint64(src[8*i:])
	}
	return &q
}

// QuantizedWords reads a compressed matrix with Quantized's checks but
// leaves its packed words in the payload: q has no Packed, and packed holds
// them little-endian, aliasing the payload — for a decoder that reads each
// word once straight into its output.
func (r *Reader) QuantizedWords() (q compress.Quantized, packed []byte) {
	q.Rows = int(r.Uint32())
	q.Cols = int(r.Uint32())
	q.Bits = int(r.Byte())
	q.ZeroCentered = r.Byte() == 1
	q.Lo = r.Float32()
	q.Hi = r.Float32()
	src := r.take(int(r.Uint32()), 8)
	if !compress.IsValidBits(q.Bits) {
		panic(fmt.Sprintf("transport: quantised matrix at %d bits", q.Bits))
	}
	n, perWord := elems(q.Rows, q.Cols), 64/q.Bits
	words := n / perWord
	if n%perWord != 0 {
		words++
	}
	// Zero-width rows carry no words to hold the row count to, and Block
	// sizes its table list by rows.
	if len(src)/8 != words || (q.Cols == 0 && q.Rows != 0) {
		panic(fmt.Sprintf("transport: quantised %dx%d matrix at %d bits in %d words", q.Rows, q.Cols, q.Bits, len(src)/8))
	}
	return q, src
}
