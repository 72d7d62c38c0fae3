package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestSparseKeepsWhatTheDenseProductsUse checks the entry rule itself: zeros
// of either sign dropped, everything else — denormals, NaN — kept, indices
// ascending, storage exact.
func TestSparseKeepsWhatTheDenseProductsUse(t *testing.T) {
	negZero, nan := float32(math.Copysign(0, -1)), float32(math.NaN())
	m := FromSlice(3, 4, []float32{
		0, 1, negZero, math.Float32frombits(1),
		0, negZero, 0, 0,
		nan, 0, -2, 0,
	})
	if got := m.Nonzeros(); got != 4 {
		t.Fatalf("Nonzeros = %d, want 4", got)
	}
	for _, c := range []struct {
		name   string
		s      *Sparse
		rowPtr []int32
		idx    []int32
	}{
		{"NewSparse", NewSparse(m), []int32{0, 2, 2, 4}, []int32{1, 3, 0, 2}},
		{"NewSparseT", NewSparseT(m), []int32{0, 1, 2, 3, 4}, []int32{2, 0, 2, 0}},
	} {
		if fmt.Sprint(c.s.RowPtr) != fmt.Sprint(c.rowPtr) || fmt.Sprint(c.s.Idx) != fmt.Sprint(c.idx) {
			t.Errorf("%s: RowPtr %v Idx %v, want %v %v", c.name, c.s.RowPtr, c.s.Idx, c.rowPtr, c.idx)
		}
		if len(c.s.Val) != 4 || cap(c.s.Val) != 4 || cap(c.s.Idx) != 4 {
			t.Errorf("%s: %d values in capacity %d/%d, want exactly 4", c.name, len(c.s.Val), cap(c.s.Val), cap(c.s.Idx))
		}
	}
	if s := NewSparse(m); s.Val[2] == s.Val[2] {
		t.Errorf("NaN entry not kept: Val %v", s.Val)
	}
	if got, want := SparseBytes(3, 4), 4*4+8*4; got != want {
		t.Errorf("SparseBytes = %d, want %d", got, want)
	}
}

// TestSparseMatchesDenseBitwise holds the CSR products to the dense ones they
// replace — Sparse.MatMul and MatMulRowsInto to MatMul and MatMulRowsInto,
// the transposed CSR's MatMul to TMatMul — at every output width up to the
// workloads' 64, every left-operand density from empty to full (with -0 and
// denormal entries and some rows emptied), inner sizes that span one to
// several of the L1 blocks, row lists, and above the parallel crossover on
// one, two and five Ps.
func TestSparseMatchesDenseBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	check := func(tag string, rows, k, width int, density float64) {
		tag = fmt.Sprintf("%s rows=%d inner=%d width=%d density=%g", tag, rows, k, width, density)
		m := oddOperand(rng, rows, k, density)
		for r := 2; r < rows; r += 5 {
			copy(m.Row(r), make([]float32, k))
		}
		n := oddOperand(rng, k, width, 0.9)
		sameBits(t, "Sparse.MatMul "+tag, NewSparse(m).MatMul(n), m.MatMul(n))

		var idx []int32
		for i := 0; i < rows; i++ {
			if i%3 != 1 {
				idx = append(idx, int32(i))
			}
		}
		got, want := New(rows, width), New(rows, width)
		NewSparse(m).MatMulRowsInto(n, got, idx)
		m.MatMulRowsInto(n, want, idx)
		sameBits(t, "Sparse.MatMulRowsInto "+tag, got, want)

		g := oddOperand(rng, rows, width, 0.9)
		sameBits(t, "NewSparseT.MatMul "+tag, NewSparseT(m).MatMul(g), m.TMatMul(g))
	}
	densities := []float64{0, 0.05, 0.2, 0.5, 1}
	eachKernel(t, func(t *testing.T) {
		for _, density := range densities {
			for width := 1; width <= 64; width++ {
				for _, shape := range [][2]int{{0, 3}, {1, 0}, {3, 1}, {19, 5}, {37, 101}, {101, 37}} {
					check("inline", shape[0], shape[1], width, density)
				}
			}
			// Several L1 blocks at width 64 (96 rows of n each), both ways round.
			check("inline", 40, 300, 64, density)
			check("inline", 300, 40, 64, density)
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		for _, procs := range []int{1, 2, 5} {
			runtime.GOMAXPROCS(procs)
			tag := fmt.Sprintf("P=%d", procs)
			for _, density := range densities[1:] {
				for _, width := range []int{1, 7, 16, 47, 64} {
					for _, k := range []int{33, 201} {
						check(tag, int(float64(parallelThreshold)/(float64(k*width)*density))+40, k, width, density)
					}
				}
			}
		}
	})
}
