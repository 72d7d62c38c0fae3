package compress

import (
	"math/rand"
	"testing"

	"ecgraph/internal/tensor"
)

func randMat(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

// TestBlockedBitwiseDecode proves the packed-domain contract: every accessor
// of the Blocked layout produces bit-identical float32 values to Decompress,
// across the bit menu, odd shapes that leave partial words and partial
// blocks, degenerate domains, and the zero-centred gradient grid.
func TestBlockedBitwiseDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][2]int{{1, 1}, {3, 5}, {BlockRows, 16}, {BlockRows + 7, 33}, {97, 13}}
	for _, bits := range ValidBits {
		for _, sh := range shapes {
			m := randMat(rng, sh[0], sh[1])
			for _, zc := range []bool{false, true} {
				var q *Quantized
				if zc {
					q = CompressZeroCentered(m, bits)
				} else {
					q = Compress(m, bits)
				}
				want := q.Decompress()
				b := q.Block()
				if q.Packed != nil {
					t.Fatalf("bits=%d: Block did not take ownership of Packed", bits)
				}
				got := b.Dense()
				for i, v := range want.Data {
					if got.Data[i] != v {
						t.Fatalf("bits=%d zc=%v shape=%v: Dense[%d]=%v want %v", bits, zc, sh, i, got.Data[i], v)
					}
				}
				// Register-dequant accumulation.
				acc := make([]float32, sh[1])
				ref := make([]float32, sh[1])
				for r := 0; r < sh[0]; r++ {
					w := float32(rng.Float64()*2 - 1)
					for j := 0; j < sh[1]; j++ {
						ref[j] = acc[j] + w*want.Row(r)[j]
					}
					b.AccumRow(acc, w, r)
					for j := 0; j < sh[1]; j++ {
						if acc[j] != ref[j] {
							t.Fatalf("bits=%d: AccumRow row %d col %d: %v want %v", bits, r, j, acc[j], ref[j])
						}
					}
				}
			}
		}
	}
}

// TestBlockedDegenerateRange covers the span≤0 domain: everything decodes
// to Lo, through both paths.
func TestBlockedDegenerateRange(t *testing.T) {
	m := tensor.New(5, 3)
	m.Fill(2.5)
	q := Compress(m, 4) // lo == hi
	want := q.Decompress()
	got := q.Block().Dense()
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("degenerate domain: got %v want %v at %d", got.Data[i], want.Data[i], i)
		}
	}
}

func TestDecompressInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randMat(rng, 17, 9)
	q := Compress(m, 4)
	want := q.Decompress()
	dst := tensor.New(17, 9)
	dst.Fill(99) // every element must be overwritten
	got := q.DecompressInto(dst)
	if got != dst {
		t.Fatalf("DecompressInto did not return dst")
	}
	for i := range want.Data {
		if dst.Data[i] != want.Data[i] {
			t.Fatalf("DecompressInto[%d]=%v want %v", i, dst.Data[i], want.Data[i])
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("DecompressInto accepted a mis-shaped destination")
			}
		}()
		q.DecompressInto(tensor.New(9, 17))
	}()
}

// TestReleaseDoubleReleaseGuard is the regression test for the
// double-release fix: Release must poison the value so a second Release
// (or a Release after Block took ownership) can never insert the same
// backing array into the pool twice.
func TestReleaseDoubleReleaseGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := Compress(randMat(rng, 8, 8), 4)
	q.Release()
	if q.Packed != nil {
		t.Fatalf("Release left Packed set")
	}
	q.Release() // must be a no-op, not a second pool insert
	q.Release()

	// Oversized buffers are not pooled but must still be poisoned.
	big := &Quantized{Rows: 1, Cols: 1, Bits: 4, Packed: make([]uint64, maxPooledWords+1)}
	big.Release()
	if big.Packed != nil {
		t.Fatalf("Release left an oversized Packed set")
	}

	// Block takes ownership: the source's Release becomes a no-op while
	// the Blocked keeps decoding its words.
	q2 := Compress(randMat(rng, 8, 8), 4)
	want := q2.Decompress()
	b := q2.Block()
	q2.Release() // no-op — words belong to b now
	got := b.Dense()
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("Blocked corrupted after source Release: got %v want %v", got.Data[i], want.Data[i])
		}
	}
}
