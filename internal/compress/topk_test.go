package compress

import (
	"math"
	"math/rand"
	"testing"

	"ecgraph/internal/tensor"
)

func TestTopKKeepsLargest(t *testing.T) {
	m := tensor.FromSlice(2, 3, []float32{0.1, -5, 0.3, 2, -0.2, 0})
	s := TopK(m, 2)
	d := s.Dense()
	if d.At(0, 1) != -5 || d.At(1, 0) != 2 {
		t.Fatalf("top-2 wrong: %v", d)
	}
	if d.AbsSum() != 7 {
		t.Fatalf("extra elements kept: %v", d)
	}
}

func TestTopKAllAndZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := tensor.New(4, 4)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	if !TopK(m, 100).Dense().Equal(m, 0) {
		t.Fatalf("k ≥ n must be lossless")
	}
	if TopK(m, 0).Dense().AbsSum() != 0 {
		t.Fatalf("k = 0 must drop everything")
	}
}

func TestTopKDeterministicTies(t *testing.T) {
	m := tensor.FromSlice(1, 4, []float32{1, 1, 1, 1})
	a := TopK(m, 2)
	b := TopK(m, 2)
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] {
			t.Fatalf("nondeterministic tie break")
		}
	}
	// Ties break toward lower indices.
	if a.Idx[0] != 0 || a.Idx[1] != 1 {
		t.Fatalf("tie break wrong: %v", a.Idx)
	}
}

func TestTopKNegativeKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	TopK(tensor.New(1, 1), -1)
}

func TestTopKWireBytes(t *testing.T) {
	s := TopK(tensor.New(10, 10), 5)
	// All-zero matrix: top-5 still keeps 5 (zero) elements.
	if s.WireBytes() != 12+5*8 {
		t.Fatalf("WireBytes = %d", s.WireBytes())
	}
}

func TestKForBudget(t *testing.T) {
	// 1024 elements at 2 bits = 256 bytes = 32 (idx,val) pairs.
	if got := KForBudget(1024, 2); got != 32 {
		t.Fatalf("KForBudget = %d, want 32", got)
	}
	if got := KForBudget(4, 1); got != 1 {
		t.Fatalf("tiny budget floor: %d", got)
	}
	if got := KForBudget(1, 16); got != 1 {
		t.Fatalf("cap at n: %d", got)
	}
}

func TestTopKErrorFeedbackRecoversMass(t *testing.T) {
	// Top-K with memory (ref [32]): cumulative delivered mass approaches the
	// true cumulative gradient even though each round drops most elements.
	rng := rand.New(rand.NewSource(2))
	rows, cols := 8, 8
	residual := tensor.New(rows, cols)
	sumTrue := tensor.New(rows, cols)
	sumSent := tensor.New(rows, cols)
	for it := 0; it < 60; it++ {
		g := tensor.New(rows, cols)
		for i := range g.Data {
			g.Data[i] = float32(rng.NormFloat64())
		}
		sumTrue.AddInPlace(g)
		cpt := g.Add(residual)
		sent := TopK(cpt, 8).Dense()
		sumSent.AddInPlace(sent)
		residual = cpt.Sub(sent)
	}
	if diff := sumTrue.Sub(sumSent).FrobeniusNorm(); math.Abs(diff-residual.FrobeniusNorm()) > 1e-3 {
		t.Fatalf("EF identity violated for Top-K: %v vs %v", diff, residual.FrobeniusNorm())
	}
}
