package nn

import (
	"math"
	"math/rand"
	"testing"

	"ecgraph/internal/datasets"
	"ecgraph/internal/graph"
	"ecgraph/internal/tensor"
)

func TestNewGATShapes(t *testing.T) {
	m := NewGAT([]int{8, 16, 3}, 1, 1)
	if m.NumLayers() != 2 || m.Kind != KindGAT || m.Heads != 1 {
		t.Fatalf("NumLayers = %d, kind %v, heads %d", m.NumLayers(), m.Kind, m.Heads)
	}
	l := m.Layers[0]
	if l.W.Rows != 8 || l.W.Cols != 16 || len(l.A1) != 16 || len(l.A2) != 16 || len(l.Bias) != 16 || l.WSelf != nil {
		t.Fatalf("layer 0 shapes wrong")
	}
	if m.TransformsFirst(1) || m.TransformsFirst(2) {
		t.Fatalf("a GAT layer transforms inside its attention")
	}
	// layer0 = 8·16 weights + 16 A1 + 16 A2 + 16 bias; layer1 likewise.
	want := (8*16 + 16 + 16 + 16) + (16*3 + 3 + 3 + 3)
	if m.ParamCount() != want {
		t.Fatalf("ParamCount = %d, want %d", m.ParamCount(), want)
	}
}

func TestGATFlattenRoundTrip(t *testing.T) {
	m := NewGAT([]int{5, 7, 2}, 1, 3)
	flat := m.FlattenParams()
	for i := range flat {
		flat[i] += 0.5
	}
	m.SetFlatParams(flat)
	got := m.FlattenParams()
	for i := range got {
		if got[i] != flat[i] {
			t.Fatalf("round trip diverges at %d", i)
		}
	}
}

func TestGATForwardAttentionRowsSumToOne(t *testing.T) {
	adj := smallGraph()
	rng := rand.New(rand.NewSource(2))
	x := randomFeatures(rng, 6, 4)
	m := NewGAT([]int{4, 6, 3}, 2, 2)
	acts := m.Forward(adj, x)
	for _, att := range acts.Att {
		for _, alpha := range att.Alpha {
			for i := 0; i < adj.N; i++ {
				var sum float64
				for e := adj.RowPtr[i]; e < adj.RowPtr[i+1]; e++ {
					a := float64(alpha[e])
					if a < 0 || a > 1 {
						t.Fatalf("attention weight out of range: %v", a)
					}
					sum += a
				}
				if math.Abs(sum-1) > 1e-5 {
					t.Fatalf("attention row %d sums to %v", i, sum)
				}
			}
		}
	}
	if out := acts.H[len(acts.H)-1]; out.Rows != 6 || out.Cols != 3 {
		t.Fatalf("output shape %dx%d", out.Rows, out.Cols)
	}
}

func gatNumericalGrad(m *Model, adj *graph.NormAdjacency, x *tensor.Matrix, labels []int, idx int) float64 {
	const eps = 1e-3
	flat := m.FlattenParams()
	orig := flat[idx]
	eval := func(v float32) float64 {
		flat[idx] = v
		m.SetFlatParams(flat)
		acts := m.Forward(adj, x)
		loss, _ := SoftmaxCrossEntropy(acts.H[len(acts.H)-1], labels, nil)
		return loss
	}
	plus := eval(orig + eps)
	minus := eval(orig - eps)
	flat[idx] = orig
	m.SetFlatParams(flat)
	return (plus - minus) / (2 * eps)
}

// TestGATBackwardMatchesNumericalGradient verifies the hand-derived
// attention backprop (softmax + LeakyReLU + both attention halves) against
// central differences across every parameter group.
func TestGATBackwardMatchesNumericalGradient(t *testing.T) {
	adj := smallGraph()
	rng := rand.New(rand.NewSource(4))
	x := randomFeatures(rng, 6, 4)
	labels := []int{0, 1, 2, 0, 1, 2}
	m := NewGAT([]int{4, 5, 3}, 1, 7)
	acts := m.Forward(adj, x)
	_, gradOut := SoftmaxCrossEntropy(acts.H[len(acts.H)-1], labels, nil)
	analytic := m.Backward(adj, acts, gradOut).Flatten()

	// Indices covering W, A1, A2 and Bias of both layers
	// (layout per layer: W, A1, A2, Bias).
	l0W := 0
	l0A1 := 4 * 5
	l0A2 := l0A1 + 5
	l0B := l0A2 + 5
	l1W := l0B + 5
	last := m.ParamCount() - 1
	for _, idx := range []int{l0W, l0W + 7, l0A1, l0A1 + 2, l0A2 + 1, l0B + 3, l1W + 4, last} {
		num := gatNumericalGrad(m, adj, x, labels, idx)
		got := float64(analytic[idx])
		if math.Abs(num-got) > 2e-2*(1+math.Abs(num)) {
			t.Fatalf("grad[%d] = %v, numerical %v", idx, got, num)
		}
	}
}

func TestGATTrainsOnCora(t *testing.T) {
	d := datasets.MustLoad("cora")
	m := NewGAT([]int{d.NumFeatures(), 8, d.NumClasses}, 1, 1)
	res := TrainFullGraph(m, d, 30, 0.01)
	if res.TestAccuracy < 0.75 {
		t.Fatalf("GAT reached only %.3f accuracy on cora preset", res.TestAccuracy)
	}
	if res.LossHistory[len(res.LossHistory)-1] >= res.LossHistory[0] {
		t.Fatalf("GAT loss did not decrease")
	}
}

func TestNewGATInvalidDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewGAT([]int{3}, 1, 1)
}

func BenchmarkGATForwardCora(b *testing.B) {
	d := datasets.MustLoad("cora")
	adj := graph.Normalize(d.Graph)
	m := NewGAT([]int{d.NumFeatures(), 8, d.NumClasses}, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(adj, d.Features)
	}
}

func TestNewGATMultiHeadShapes(t *testing.T) {
	m := NewGAT([]int{10, 16, 4}, 4, 1)
	l0 := m.Layers[0]
	if m.Heads != 4 || m.headWidth(1) != 4 || l0.W.Cols != 16 || len(l0.A1) != 16 || len(l0.Bias) != 16 {
		t.Fatalf("hidden layer: heads %d, dHead %d, W cols %d, bias %d", m.Heads, m.headWidth(1), l0.W.Cols, len(l0.Bias))
	}
	// The output layer averages its heads: four class-wide transforms, one
	// class-wide bias.
	l1 := m.Layers[1]
	if m.headWidth(2) != 4 || l1.W.Cols != 16 || len(l1.A2) != 16 || len(l1.Bias) != 4 {
		t.Fatalf("output layer: dHead %d, W cols %d, bias %d", m.headWidth(2), l1.W.Cols, len(l1.Bias))
	}
}

func TestNewGATMultiHeadInvalid(t *testing.T) {
	for _, f := range []func(){
		func() { NewGAT([]int{10, 15, 4}, 4, 1) }, // 15 % 4 != 0
		func() { NewGAT([]int{10, 16, 4}, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestGATMultiHeadBackwardMatchesNumericalGradient gradient-checks the
// multi-head paths: per-head gradient slicing on concat layers and the 1/K
// scaling on the averaging output layer.
func TestGATMultiHeadBackwardMatchesNumericalGradient(t *testing.T) {
	adj := smallGraph()
	rng := rand.New(rand.NewSource(14))
	x := randomFeatures(rng, 6, 4)
	labels := []int{0, 1, 2, 0, 1, 2}
	m := NewGAT([]int{4, 6, 3}, 2, 7)
	acts := m.Forward(adj, x)
	_, gradOut := SoftmaxCrossEntropy(acts.H[len(acts.H)-1], labels, nil)
	analytic := m.Backward(adj, acts, gradOut).Flatten()
	n := m.ParamCount()
	for _, idx := range []int{0, 5, n / 4, n / 2, 3 * n / 4, n - 4, n - 1} {
		num := gatNumericalGrad(m, adj, x, labels, idx)
		got := float64(analytic[idx])
		if math.Abs(num-got) > 2e-2*(1+math.Abs(num)) {
			t.Fatalf("grad[%d] = %v, numerical %v", idx, got, num)
		}
	}
}

func TestGATMultiHeadTrains(t *testing.T) {
	d := datasets.MustLoad("cora")
	m := NewGAT([]int{d.NumFeatures(), 16, d.NumClasses}, 4, 1)
	res := TrainFullGraph(m, d, 30, 0.01)
	if res.TestAccuracy < 0.75 {
		t.Fatalf("4-head GAT reached only %.3f", res.TestAccuracy)
	}
}
