package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"ecgraph/internal/compress"
	"ecgraph/internal/tensor"
)

// The benchmark shape: a boundary-heavy local operator whose ghost matrix
// (nGhost×cols floats = 2 MiB) overflows L2, so the decode pass streams cold
// memory while the packed fold decodes one strip of scratch at a time.
const (
	qspmmOwned = 4096
	qspmmGhost = 8192
	qspmmDeg   = 8
	qspmmCols  = 64
)

// qspmmPayload is one quantised ghost payload plus everything both arms
// need: the words kept outside any pool, and a prototype Quantized whose
// view can be rebuilt per simulated receive (Block moves ownership, so each
// receive gets a fresh conversion, charging the packed arm its true cost).
type qspmmPayload struct {
	proto compress.Quantized
	words []uint64
}

func newQspmmPayload(rng *rand.Rand, bits int) *qspmmPayload {
	m := randomMatrix(rng, qspmmGhost, qspmmCols)
	q := compress.Compress(m, bits)
	p := &qspmmPayload{proto: *q, words: q.Packed}
	p.proto.Packed = nil
	return p
}

// decodeArm is the old receive path: materialise the float ghost matrix,
// then run the dense compact kernel.
func (p *qspmmPayload) decodeArm(a *LocalCSR) *tensor.Matrix {
	q := p.proto
	q.Packed = p.words
	return a.SpMMGhostCompact(q.Decompress())
}

// packedArm is the receive path the workers take: convert to the blocked
// view (LUT build only) and fold, each packed row decoded once into strip
// scratch.
func (p *qspmmPayload) packedArm(a *LocalCSR, op *GhostOperand, ar *tensor.Arena) *tensor.Matrix {
	q := p.proto
	q.Packed = p.words
	op.SetRowsPacked(0, q.Block())
	ar.Reset()
	return a.SpMMGhostCompactPacked(op, ar)
}

// benchFixture builds the scenario once per bit width for the -benchmem
// benchmarks below.
func benchFixture(bits int) (*LocalCSR, *qspmmPayload, *GhostOperand, *tensor.Arena) {
	rng := rand.New(rand.NewSource(23))
	a := randomLocalCSR(rng, qspmmOwned, qspmmGhost, qspmmDeg)
	p := newQspmmPayload(rng, bits)
	op := NewGhostHybrid(qspmmGhost, qspmmCols)
	ar := tensor.NewArena(0)
	p.packedArm(a, op, ar) // warm the arena
	return a, p, op, ar
}

// BenchmarkSpMMGhostDecode measures the old receive path per payload:
// Decompress into a fresh matrix, then the dense compact kernel.
func BenchmarkSpMMGhostDecode(b *testing.B) {
	for _, bits := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("b%d", bits), func(b *testing.B) {
			a, p, _, _ := benchFixture(bits)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.decodeArm(a)
			}
		})
	}
}

// BenchmarkSpMMGhostPacked measures the new receive path per payload:
// Block conversion (LUT only) plus the packed compact kernel with arena
// output — the full per-exchange cost, not just the kernel.
func BenchmarkSpMMGhostPacked(b *testing.B) {
	for _, bits := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("b%d", bits), func(b *testing.B) {
			a, p, op, ar := benchFixture(bits)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.packedArm(a, op, ar)
			}
		})
	}
}

// BenchmarkSpMMGhostPackedSteady is the allocation-gated benchmark: the
// operand and arena are steady state (built once per receive, reused every
// layer), the shape sits on the inline kernel path, and CI asserts this
// benchmark reports exactly 0 allocs/op.
func BenchmarkSpMMGhostPackedSteady(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	a, op, ar := steadyFixture(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar.Reset()
		a.SpMMGhostCompactPacked(op, ar)
	}
}
