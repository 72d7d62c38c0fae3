package compress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ecgraph/internal/tensor"
)

func randomMatrix(rng *rand.Rand, rows, cols int, lo, hi float32) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = lo + rng.Float32()*(hi-lo)
	}
	return m
}

func TestIsValidBits(t *testing.T) {
	for _, b := range ValidBits {
		if !IsValidBits(b) {
			t.Fatalf("IsValidBits(%d) = false", b)
		}
	}
	for _, b := range []int{0, 3, 5, 32, -1} {
		if IsValidBits(b) {
			t.Fatalf("IsValidBits(%d) = true", b)
		}
	}
}

func TestCompressInvalidBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	Compress(tensor.New(1, 1), 3)
}

func TestRoundTripErrorWithinHalfBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bits := range ValidBits {
		m := randomMatrix(rng, 17, 9, -2, 3)
		q := Compress(m, bits)
		d := q.Decompress()
		maxErr := float64(q.MaxAbsError())
		for i := range m.Data {
			if err := math.Abs(float64(m.Data[i] - d.Data[i])); err > maxErr+1e-6 {
				t.Fatalf("bits=%d: element %d error %v exceeds half bucket %v", bits, i, err, maxErr)
			}
		}
	}
}

func TestHigherBitsLowerError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomMatrix(rng, 50, 20, 0, 1)
	var prev float64 = math.Inf(1)
	for _, bits := range ValidBits {
		err := Compress(m, bits).Decompress().Sub(m).AbsSum()
		if err >= prev {
			t.Fatalf("bits=%d error %v not below previous %v", bits, err, prev)
		}
		prev = err
	}
}

func TestDegenerateDomain(t *testing.T) {
	m := tensor.New(3, 3)
	m.Fill(0.7)
	q := Compress(m, 4)
	d := q.Decompress()
	for _, v := range d.Data {
		if v != 0.7 {
			t.Fatalf("constant matrix not reconstructed exactly: %v", v)
		}
	}
	if q.MaxAbsError() != 0 {
		t.Fatalf("degenerate MaxAbsError = %v", q.MaxAbsError())
	}
}

func TestEmptyMatrix(t *testing.T) {
	q := Compress(tensor.New(0, 5), 2)
	d := q.Decompress()
	if d.Rows != 0 || d.Cols != 5 {
		t.Fatalf("empty round trip wrong shape %dx%d", d.Rows, d.Cols)
	}
	if q.WireBytes() <= 0 {
		t.Fatalf("WireBytes should still include header")
	}
}

func TestClampOutOfRangeValues(t *testing.T) {
	m := tensor.FromSlice(1, 3, []float32{-10, 0.5, 10})
	q := CompressWithRange(m, 2, 0, 1)
	d := q.Decompress()
	if d.Data[0] != q.Values(nil)[0] {
		t.Fatalf("below-range value not clamped to bucket 0: %v", d.Data[0])
	}
	if d.Data[2] != q.Values(nil)[3] {
		t.Fatalf("above-range value not clamped to top bucket: %v", d.Data[2])
	}
}

// BucketID returns the stored bucket id of element i (row-major).
func (q *Quantized) BucketID(i int) int {
	perWord := 64 / q.Bits
	mask := uint64(1)<<uint(q.Bits) - 1
	return int((q.Packed[i/perWord] >> (uint(i%perWord) * uint(q.Bits))) & mask)
}

func TestBucketIDAndValueConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 8, 8, -1, 1)
	q := Compress(m, 4)
	d := q.Decompress()
	for i := range m.Data {
		if got := q.Values(nil)[q.BucketID(i)]; got != d.Data[i] {
			t.Fatalf("element %d: Values[BucketID]=%v but Decompress=%v", i, got, d.Data[i])
		}
	}
}

func TestWireBytesAccounting(t *testing.T) {
	q := Compress(tensor.New(10, 16), 2) // 160 elements × 2 bits = 40 bytes
	want := 18 + 40 + 4*4                // header + ids + 4-bucket table
	if got := q.WireBytes(); got != want {
		t.Fatalf("WireBytes = %d, want %d", got, want)
	}
	if got := RawWireBytes(10, 16); got != 8+640 {
		t.Fatalf("RawWireBytes = %d, want 648", got)
	}
}

func TestCompressionRatioApproaches32OverB(t *testing.T) {
	// For large matrices the table+header amortise away and the ratio
	// approaches 32/B (§III-C).
	for _, bits := range []int{1, 2, 4, 8} {
		raw := RawWireBytes(4096, 128)
		comp := Compress(tensor.New(4096, 128), bits).WireBytes()
		ratio := float64(raw) / float64(comp)
		want := 32.0 / float64(bits)
		if math.Abs(ratio-want)/want > 0.05 {
			t.Fatalf("bits=%d: ratio %v, want ≈%v", bits, ratio, want)
		}
	}
}

// TestAlphaContraction verifies the Eq. 13 precondition empirically: for
// data spread over a symmetric domain, quantisation is an α-contraction
// with α² = E||x-C(x)||²/||x||² < 1 for B ≥ 2.
func TestAlphaContraction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := tensor.New(20, 10)
		for i := range m.Data {
			m.Data[i] = float32(rng.NormFloat64())
		}
		q := Compress(m, 4)
		errNorm := q.Decompress().Sub(m).FrobeniusNorm()
		return errNorm < m.FrobeniusNorm()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripPreservesShapeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		m := randomMatrix(rng, rows, cols, -5, 5)
		bits := ValidBits[rng.Intn(len(ValidBits))]
		d := Compress(m, bits).Decompress()
		return d.Rows == rows && d.Cols == cols
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func Test16BitNearLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomMatrix(rng, 30, 30, 0, 1)
	d := Compress(m, 16).Decompress()
	if err := d.Sub(m).MaxAbs(); err > 1.0/65536 {
		t.Fatalf("16-bit max error %v too large", err)
	}
}

func BenchmarkCompress2Bit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 1024, 128, 0, 1)
	b.SetBytes(int64(len(m.Data) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compress(m, 2)
	}
}

func BenchmarkCompress8Bit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 1024, 128, 0, 1)
	b.SetBytes(int64(len(m.Data) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compress(m, 8)
	}
}

func BenchmarkDecompress2Bit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q := Compress(randomMatrix(rng, 1024, 128, 0, 1), 2)
	b.SetBytes(int64(1024 * 128 * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Decompress()
	}
}
