package compress

import (
	"math"
	"math/rand"
	"testing"

	"ecgraph/internal/tensor"
)

func TestZeroCenteredPreservesExactZeros(t *testing.T) {
	// The motivating property: sparse gradient rows round-trip losslessly.
	m := tensor.FromSlice(2, 3, []float32{0, 0.9, 0, -0.9, 0, 0.45})
	for _, bits := range []int{2, 4, 8} {
		d := CompressZeroCentered(m, bits).Decompress()
		for i, v := range m.Data {
			if v == 0 && d.Data[i] != 0 {
				t.Fatalf("bits=%d: zero element %d came back as %v", bits, i, d.Data[i])
			}
		}
	}
}

func TestZeroCenteredSymmetricDomain(t *testing.T) {
	m := tensor.FromSlice(1, 3, []float32{-2, 0.1, 1})
	q := CompressZeroCentered(m, 4)
	if q.Lo != -2 || q.Hi != 2 {
		t.Fatalf("domain [%v,%v], want symmetric ±2", q.Lo, q.Hi)
	}
	if !q.ZeroCentered {
		t.Fatalf("ZeroCentered flag not set")
	}
}

func TestZeroCenteredRoundTripBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := tensor.New(20, 10)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	for _, bits := range []int{2, 4, 8, 16} {
		q := CompressZeroCentered(m, bits)
		d := q.Decompress()
		maxErr := float64(q.MaxAbsError())
		for i := range m.Data {
			if err := math.Abs(float64(m.Data[i] - d.Data[i])); err > maxErr+1e-5 {
				t.Fatalf("bits=%d: element %d error %v exceeds %v", bits, i, err, maxErr)
			}
		}
	}
}

// TestZeroCenteredIsContraction verifies the α < 1 property error feedback
// needs, including the B = 1 sign-quantisation case with mean-abs scaling.
func TestZeroCenteredIsContraction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, bits := range ValidBits {
		for trial := 0; trial < 20; trial++ {
			m := tensor.New(15, 8)
			for i := range m.Data {
				m.Data[i] = float32(rng.NormFloat64())
			}
			// Peaked data too: mostly zeros plus spikes.
			if trial%2 == 1 {
				for i := range m.Data {
					if i%7 != 0 {
						m.Data[i] = 0
					}
				}
			}
			q := CompressZeroCentered(m, bits)
			errNorm := q.Decompress().Sub(m).FrobeniusNorm()
			if norm := m.FrobeniusNorm(); norm > 0 && errNorm >= norm {
				t.Fatalf("bits=%d trial=%d: α ≥ 1 (err %v, norm %v)", bits, trial, errNorm, norm)
			}
		}
	}
}

func TestZeroCenteredOneBitUsesMeanAbsScale(t *testing.T) {
	m := tensor.FromSlice(1, 4, []float32{1, -1, 1, -5}) // mean |x| = 2
	q := CompressZeroCentered(m, 1)
	if q.Hi != 2 || q.Lo != -2 {
		t.Fatalf("1-bit scale [%v,%v], want ±mean|x| = ±2", q.Lo, q.Hi)
	}
	d := q.Decompress()
	want := []float32{2, -2, 2, -2}
	for i := range want {
		if d.Data[i] != want[i] {
			t.Fatalf("1-bit decompress %v, want %v", d.Data, want)
		}
	}
}

func TestZeroCenteredAllZerosAndEmpty(t *testing.T) {
	m := tensor.New(3, 3)
	d := CompressZeroCentered(m, 4).Decompress()
	if d.AbsSum() != 0 {
		t.Fatalf("all-zero matrix did not round trip to zeros")
	}
	if got := CompressZeroCentered(tensor.New(0, 2), 2).Decompress(); got.Rows != 0 {
		t.Fatalf("empty matrix broken")
	}
}

func TestZeroCenteredInvalidBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	CompressZeroCentered(tensor.New(1, 1), 3)
}

func TestZeroCenteredHigherBitsLowerError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := tensor.New(30, 10)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	prev := math.Inf(1)
	for _, bits := range []int{2, 4, 8, 16} {
		err := CompressZeroCentered(m, bits).Decompress().Sub(m).AbsSum()
		if err >= prev {
			t.Fatalf("bits=%d error %v not below previous %v", bits, err, prev)
		}
		prev = err
	}
}

// TestZeroLevelExactEveryWidth: at every B ≥ 2 and any scale, a zero
// element encodes to the middle level and decodes to +0 bit for bit — the
// property the top-layer getG relies on to leave rows it does not ship with
// zero residual (DESIGN.md §10). Decoding as Lo + id·step missed it for
// ~10 % of scales at B = 4.
func TestZeroLevelExactEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := tensor.New(1, 3)
	for _, bits := range []int{2, 4, 8, 16} {
		mid := (1<<bits - 1) / 2
		for trial := 0; trial < 100000; trial++ {
			mx := float32(math.Exp(rng.NormFloat64() * 4))
			m.Data[0], m.Data[1], m.Data[2] = mx, 0, -mx*rng.Float32()
			q := CompressZeroCentered(m, bits)
			if id := q.BucketID(1); id != mid {
				t.Fatalf("bits=%d scale %v: zero encoded to level %d, want %d", bits, mx, id, mid)
			}
			g := q.ZeroGrid()
			if v := g.Value(mid); math.Float32bits(v) != 0 {
				t.Fatalf("bits=%d scale %v: level %d decodes to %v (bits %#x), want +0",
					bits, mx, mid, v, math.Float32bits(v))
			}
			q.Release()
		}
	}
}
