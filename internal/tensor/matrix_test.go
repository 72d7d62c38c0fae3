package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestFromSliceAndAccessors(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	if m.At(0, 2) != 3 || m.At(1, 0) != 4 {
		t.Fatalf("At returned wrong values: %v %v", m.At(0, 2), m.At(1, 0))
	}
	m.Set(1, 1, 9)
	if m.At(1, 1) != 9 {
		t.Fatalf("Set did not stick")
	}
	if got := m.Row(1); got[0] != 4 || got[1] != 9 {
		t.Fatalf("Row view wrong: %v", got)
	}
	m.SetRow(0, []float32{7, 8, 9})
	if m.At(0, 0) != 7 || m.At(0, 2) != 9 {
		t.Fatalf("SetRow did not stick")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

func TestCloneIsDeep(t *testing.T) {
	m := FromSlice(1, 2, []float32{1, 2})
	c := m.Clone()
	c.Data[0] = 42
	if m.Data[0] != 1 {
		t.Fatalf("Clone aliases original storage")
	}
}

func TestAddSubHadamardScale(t *testing.T) {
	a := FromSlice(2, 2, []float32{1, 2, 3, 4})
	b := FromSlice(2, 2, []float32{5, 6, 7, 8})
	if got := a.Add(b); !got.Equal(FromSlice(2, 2, []float32{6, 8, 10, 12}), 0) {
		t.Fatalf("Add wrong: %v", got)
	}
	if got := b.Sub(a); !got.Equal(FromSlice(2, 2, []float32{4, 4, 4, 4}), 0) {
		t.Fatalf("Sub wrong: %v", got)
	}
	if got := a.Clone().HadamardInPlace(b); !got.Equal(FromSlice(2, 2, []float32{5, 12, 21, 32}), 0) {
		t.Fatalf("HadamardInPlace wrong: %v", got)
	}
	if got := a.Scale(2); !got.Equal(FromSlice(2, 2, []float32{2, 4, 6, 8}), 0) {
		t.Fatalf("Scale wrong: %v", got)
	}
}

func TestInPlaceOpsMatchOutOfPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 5, 7)
	b := randomMatrix(rng, 5, 7)
	want := a.Add(b)
	got := a.Clone().AddInPlace(b)
	if !got.Equal(want, 0) {
		t.Fatalf("AddInPlace diverges from Add")
	}
	want = a.Add(b.Scale(0.25))
	got = a.Clone().AddScaledInPlace(b, 0.25)
	if !got.Equal(want, 1e-6) {
		t.Fatalf("AddScaledInPlace diverges")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a, b := New(2, 3), New(3, 2)
	for name, f := range map[string]func(){
		"Add":      func() { a.Add(b) },
		"Sub":      func() { a.Sub(b) },
		"Hadamard": func() { a.HadamardInPlace(b) },
		"MatMul":   func() { a.MatMul(New(4, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on shape mismatch", name)
				}
			}()
			f()
		}()
	}
}

// TestEqualRejectsNaN: a NaN is within no tolerance of anything, so a kernel
// that writes one cannot pass an Equal check.
func TestEqualRejectsNaN(t *testing.T) {
	nan := FromSlice(1, 1, []float32{float32(math.NaN())})
	if nan.Equal(FromSlice(1, 1, []float32{1}), 1e9) || nan.Equal(nan, 1e9) {
		t.Fatal("Equal accepted a NaN")
	}
}

func TestTranspose(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	want := FromSlice(3, 2, []float32{1, 4, 2, 5, 3, 6})
	if got := m.T(); !got.Equal(want, 0) {
		t.Fatalf("T wrong: %v", got)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		m := randomMatrix(rng, rows, cols)
		return m.T().T().Equal(m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var acc float64
			for k := 0; k < a.Cols; k++ {
				acc += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			out.Set(i, j, float32(acc))
		}
	}
	return out
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	want := FromSlice(2, 2, []float32{58, 64, 139, 154})
	if got := a.MatMul(b); !got.Equal(want, 1e-5) {
		t.Fatalf("MatMul wrong: %v", got)
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(30), 1+rng.Intn(30), 1+rng.Intn(30)
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		return a.MatMul(b).Equal(naiveMatMul(a, b), 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulParallelPathMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomMatrix(rng, 130, 90)
	b := randomMatrix(rng, 90, 110)
	if !a.MatMul(b).Equal(naiveMatMul(a, b), 1e-2) {
		t.Fatalf("parallel MatMul diverges from naive")
	}
}

func TestMatMulTAndTMatMul(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(25), 1+rng.Intn(25), 1+rng.Intn(25)
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, n, k) // for MatMulT: a · bᵀ
		c := randomMatrix(rng, m, n) // for TMatMul: aᵀ · c
		okT := a.MatMulT(b).Equal(a.MatMul(b.T()), 1e-3)
		okTM := a.TMatMul(c).Equal(a.T().MatMul(c), 1e-3)
		return okT && okTM
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTMatMulParallelPathMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomMatrix(rng, 200, 80)
	b := randomMatrix(rng, 200, 90)
	if !a.TMatMul(b).Equal(a.T().MatMul(b), 1e-2) {
		t.Fatalf("parallel TMatMul diverges")
	}
}

func TestMatMulDistributesOverAdd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(15), 1+rng.Intn(15), 1+rng.Intn(15)
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		c := randomMatrix(rng, k, n)
		left := a.MatMul(b.Add(c))
		right := a.MatMul(b).Add(a.MatMul(c))
		return left.Equal(right, 1e-2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAddRowVectorAndColSums(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	m.AddRowVector([]float32{10, 20, 30})
	want := FromSlice(2, 3, []float32{11, 22, 33, 14, 25, 36})
	if !m.Equal(want, 0) {
		t.Fatalf("AddRowVector wrong: %v", m)
	}
	sums := m.ColSums()
	if sums[0] != 25 || sums[1] != 47 || sums[2] != 69 {
		t.Fatalf("ColSums wrong: %v", sums)
	}
}

func TestNormsAndReductions(t *testing.T) {
	m := FromSlice(2, 2, []float32{3, -4, 0, 0})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("FrobeniusNorm = %v, want 5", got)
	}
	if got := m.AbsSum(); got != 7 {
		t.Fatalf("AbsSum = %v, want 7", got)
	}
	if got := m.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %v, want 4", got)
	}
	lo, hi := m.MinMax()
	if lo != -4 || hi != 3 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
}

func TestMinMaxEmpty(t *testing.T) {
	lo, hi := New(0, 5).MinMax()
	if lo != 0 || hi != 0 {
		t.Fatalf("empty MinMax = %v,%v, want 0,0", lo, hi)
	}
}

func TestReLUAndGrad(t *testing.T) {
	m := FromSlice(1, 4, []float32{-1, 0, 0.5, 2})
	if got := m.ReLU(); !got.Equal(FromSlice(1, 4, []float32{0, 0, 0.5, 2}), 0) {
		t.Fatalf("ReLU wrong: %v", got)
	}
	if got := m.ReLUGrad(); !got.Equal(FromSlice(1, 4, []float32{0, 0, 1, 1}), 0) {
		t.Fatalf("ReLUGrad wrong: %v", got)
	}
}

func TestReLUBackwardInPlace(t *testing.T) {
	z := FromSlice(2, 3, []float32{-1, 0, 0.5, 2, -3, 1e-9})
	g := FromSlice(2, 3, []float32{10, 20, 30, 40, 50, 60})
	want := g.Clone().HadamardInPlace(z.ReLUGrad())
	got := g.ReLUBackwardInPlace(z)
	if got != g {
		t.Fatal("ReLUBackwardInPlace must return its receiver")
	}
	if !got.Equal(want, 0) {
		t.Fatalf("fused ReLU backward %v, want %v", got.Data, want.Data)
	}
}

func TestAddRowsAt(t *testing.T) {
	m := FromSlice(4, 2, []float32{1, 1, 2, 2, 3, 3, 4, 4})
	src := FromSlice(2, 2, []float32{10, 20, 30, 40})
	got := m.AddRowsAt([]int32{0, 3}, src)
	if got != m {
		t.Fatal("AddRowsAt must return its receiver")
	}
	want := FromSlice(4, 2, []float32{11, 21, 2, 2, 3, 3, 34, 44})
	if !m.Equal(want, 0) {
		t.Fatalf("AddRowsAt result %v, want %v", m.Data, want.Data)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("AddRowsAt with mismatched index count did not panic")
		}
	}()
	m.AddRowsAt([]int32{0}, src)
}

func TestSetRowsAt(t *testing.T) {
	m := FromSlice(4, 2, []float32{1, 1, 2, 2, 3, 3, 4, 4})
	src := FromSlice(2, 2, []float32{10, 20, 30, 40})
	if got := m.SetRowsAt([]int32{0, 3}, src); got != m {
		t.Fatal("SetRowsAt must return its receiver")
	}
	want := FromSlice(4, 2, []float32{10, 20, 2, 2, 3, 3, 30, 40})
	if !m.Equal(want, 0) {
		t.Fatalf("SetRowsAt result %v, want %v", m.Data, want.Data)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("SetRowsAt with mismatched index count did not panic")
		}
	}()
	m.SetRowsAt([]int32{0}, src)
}

// TestMatMulRowsIntoMatchesMatMulBitwise: the listed rows carry exactly
// MatMul's bits, the others are left alone — at an inline size and at one
// large enough to take the banded parallel path.
func TestMatMulRowsIntoMatchesMatMulBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, rows := range []int{7, 900} {
		m, n := randomMatrix(rng, rows, 48), randomMatrix(rng, 48, 16)
		full := m.MatMul(n)
		var idx []int32
		for i := 0; i < rows; i++ {
			if i%3 != 1 {
				idx = append(idx, int32(i))
			}
		}
		out := New(rows, 16)
		m.MatMulRowsInto(n, out, idx)
		for i := 0; i < rows; i++ {
			for j, v := range out.Row(i) {
				want := full.At(i, j)
				if i%3 == 1 {
					want = 0
				}
				if math.Float32bits(v) != math.Float32bits(want) {
					t.Fatalf("%d rows: out[%d][%d] = %v, want %v", rows, i, j, v, want)
				}
			}
		}
	}
}

func TestArgMaxRows(t *testing.T) {
	nan := float32(math.NaN())
	m := FromSlice(6, 3, []float32{
		1, 5, 2,
		9, 0, 0,
		1, 1, 2,
		3, 7, 7, // tie: the first maximum wins
		nan, 4, 5, // a NaN at index 0 is never displaced
		2, nan, 1, // a later NaN never wins
	})
	want := []int{1, 0, 2, 1, 0, 0}
	for i := range want {
		if got := ArgMax(m.Row(i)); got != want[i] {
			t.Fatalf("ArgMax(row %d) = %d, want %d", i, got, want[i])
		}
	}
}

func TestGatherScatterRows(t *testing.T) {
	m := FromSlice(3, 2, []float32{1, 2, 3, 4, 5, 6})
	g := m.GatherRows([]int{2, 0})
	if !g.Equal(FromSlice(2, 2, []float32{5, 6, 1, 2}), 0) {
		t.Fatalf("GatherRows wrong: %v", g)
	}
}

func TestZeroAndFill(t *testing.T) {
	m := FromSlice(1, 3, []float32{1, 2, 3})
	m.Fill(7)
	if m.At(0, 0) != 7 || m.At(0, 2) != 7 {
		t.Fatalf("Fill wrong: %v", m)
	}
	m.Zero()
	if m.AbsSum() != 0 {
		t.Fatalf("Zero wrong: %v", m)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomMatrix(rng, 128, 128)
	y := randomMatrix(rng, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MatMul(y)
	}
}

func BenchmarkMatMul512(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomMatrix(rng, 512, 512)
	y := randomMatrix(rng, 512, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MatMul(y)
	}
}

func BenchmarkTMatMul256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomMatrix(rng, 256, 256)
	y := randomMatrix(rng, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.TMatMul(y)
	}
}
