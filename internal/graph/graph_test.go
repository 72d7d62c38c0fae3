package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ecgraph/internal/tensor"
)

// triangle plus a pendant: 0-1, 1-2, 0-2, 2-3
func testGraph() *Graph {
	return FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
}

func randomGraph(rng *rand.Rand, n, m int) *Graph {
	edges := make([][2]int32, m)
	for i := range edges {
		edges[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	return FromEdges(n, edges)
}

func TestFromEdgesBasics(t *testing.T) {
	g := testGraph()
	if g.N != 4 {
		t.Fatalf("N = %d", g.N)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	wantDeg := []int{2, 2, 3, 1}
	for v, d := range wantDeg {
		if g.Degree(v) != d {
			t.Fatalf("Degree(%d) = %d, want %d", v, g.Degree(v), d)
		}
	}
	if got := g.AvgDegree(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("AvgDegree = %v, want 2", got)
	}
}

func TestFromEdgesDropsDuplicatesAndSelfLoops(t *testing.T) {
	g := FromEdges(3, [][2]int32{{0, 1}, {1, 0}, {0, 1}, {2, 2}, {-1, 0}, {0, 5}})
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatalf("missing symmetric edge")
	}
	if g.HasEdge(2, 2) || g.HasEdge(0, 2) {
		t.Fatalf("unexpected edge present")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := FromEdges(5, [][2]int32{{3, 0}, {3, 4}, {3, 1}, {3, 2}})
	nbrs := g.Neighbors(3)
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i-1] >= nbrs[i] {
			t.Fatalf("neighbors not sorted: %v", nbrs)
		}
	}
}

func TestNormalizeRowValues(t *testing.T) {
	// Path graph 0-1: deg+1 = 2 for both. Â[0][0]=1/2, Â[0][1]=1/2.
	g := FromEdges(2, [][2]int32{{0, 1}})
	a := Normalize(g)
	d := a.Dense()
	want := tensor.FromSlice(2, 2, []float32{0.5, 0.5, 0.5, 0.5})
	if !d.Equal(want, 1e-6) {
		t.Fatalf("normalised adjacency wrong: %v", d)
	}
}

func TestNormalizeSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(30), 40)
		d := Normalize(g).Dense()
		return d.Equal(d.T(), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeSelfLoopPresent(t *testing.T) {
	g := testGraph()
	a := Normalize(g)
	d := a.Dense()
	for v := 0; v < g.N; v++ {
		if d.At(v, v) <= 0 {
			t.Fatalf("self-loop weight missing at %d", v)
		}
	}
}

func TestNormalizeColIdxSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 50, 300)
	a := Normalize(g)
	for v := 0; v < a.N; v++ {
		row := a.ColIdx[a.RowPtr[v]:a.RowPtr[v+1]]
		for i := 1; i < len(row); i++ {
			if row[i-1] >= row[i] {
				t.Fatalf("row %d not sorted: %v", v, row)
			}
		}
	}
}

func TestSpMMMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := randomGraph(rng, n, 3*n)
		a := Normalize(g)
		h := tensor.New(n, 1+rng.Intn(8))
		for i := range h.Data {
			h.Data[i] = float32(rng.NormFloat64())
		}
		return a.SpMM(h).Equal(a.Dense().MatMul(h), 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSpMMParallelPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 400, 4000)
	a := Normalize(g)
	h := tensor.New(400, 32)
	for i := range h.Data {
		h.Data[i] = float32(rng.NormFloat64())
	}
	if !a.SpMM(h).Equal(a.Dense().MatMul(h), 1e-3) {
		t.Fatalf("parallel SpMM diverges from dense reference")
	}
}

func TestNormalizeRowSumsBounded(t *testing.T) {
	// Rows of Â sum to ≤ 1 with equality on regular graphs.
	g := FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}}) // 4-cycle, 2-regular
	d := Normalize(g).Dense()
	for v := 0; v < 4; v++ {
		var sum float64
		for j := 0; j < 4; j++ {
			sum += float64(d.At(v, j))
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("row %d of regular graph sums to %v", v, sum)
		}
	}
}

func BenchmarkSpMM(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 5000, 50000)
	a := Normalize(g)
	h := tensor.New(5000, 64)
	for i := range h.Data {
		h.Data[i] = float32(rng.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.SpMM(h)
	}
}

func BenchmarkNormalize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 5000, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Normalize(g)
	}
}

// Dense materialises Â as a dense matrix; only for tests on small graphs.
func (a *NormAdjacency) Dense() *tensor.Matrix {
	out := tensor.New(a.N, a.N)
	for v := 0; v < a.N; v++ {
		for p := a.RowPtr[v]; p < a.RowPtr[v+1]; p++ {
			out.Set(v, int(a.ColIdx[p]), a.Val[p])
		}
	}
	return out
}
