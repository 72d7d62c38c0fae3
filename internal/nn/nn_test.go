package nn

import (
	"math"
	"math/rand"
	"testing"

	"ecgraph/internal/datasets"
	"ecgraph/internal/graph"
	"ecgraph/internal/tensor"
)

func smallGraph() *graph.NormAdjacency {
	g := graph.FromEdges(6, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}, {1, 4}})
	return graph.Normalize(g)
}

func randomFeatures(rng *rand.Rand, n, d int) *tensor.Matrix {
	x := tensor.New(n, d)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	return x
}

func TestNewModelShapes(t *testing.T) {
	m := NewModel(KindGCN, []int{10, 16, 4}, 1)
	if m.NumLayers() != 2 {
		t.Fatalf("NumLayers = %d", m.NumLayers())
	}
	if m.Layers[0].W.Rows != 10 || m.Layers[0].W.Cols != 16 {
		t.Fatalf("layer 0 W shape %dx%d", m.Layers[0].W.Rows, m.Layers[0].W.Cols)
	}
	if m.Layers[1].W.Rows != 16 || m.Layers[1].W.Cols != 4 {
		t.Fatalf("layer 1 W shape %dx%d", m.Layers[1].W.Rows, m.Layers[1].W.Cols)
	}
	if m.Layers[0].WSelf != nil {
		t.Fatalf("GCN should have no WSelf")
	}
	s := NewModel(KindSAGE, []int{10, 16, 4}, 1)
	if s.Layers[0].WSelf == nil {
		t.Fatalf("SAGE should have WSelf")
	}
	if KindGCN.String() != "gcn" || KindSAGE.String() != "sage" || Kind(9).String() == "" {
		t.Fatalf("Kind.String broken")
	}
}

func TestNewModelDeterministicForSeed(t *testing.T) {
	a := NewModel(KindGCN, []int{5, 8, 3}, 7)
	b := NewModel(KindGCN, []int{5, 8, 3}, 7)
	if !a.Layers[0].W.Equal(b.Layers[0].W, 0) {
		t.Fatalf("same seed produced different weights")
	}
	c := NewModel(KindGCN, []int{5, 8, 3}, 8)
	if a.Layers[0].W.Equal(c.Layers[0].W, 0) {
		t.Fatalf("different seed produced identical weights")
	}
}

func TestGlorotBound(t *testing.T) {
	m := NewModel(KindGCN, []int{50, 30}, 3)
	bound := float32(math.Sqrt(6.0 / 80))
	for _, v := range m.Layers[0].W.Data {
		if v < -bound || v > bound {
			t.Fatalf("weight %v outside Glorot bound ±%v", v, bound)
		}
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	for _, kind := range []Kind{KindGCN, KindSAGE} {
		m := NewModel(kind, []int{7, 9, 4}, 2)
		flat := m.FlattenParams()
		if len(flat) != m.ParamCount() {
			t.Fatalf("%v: flat length %d != ParamCount %d", kind, len(flat), m.ParamCount())
		}
		for i := range flat {
			flat[i] += 1
		}
		m.SetFlatParams(flat)
		got := m.FlattenParams()
		for i := range got {
			if got[i] != flat[i] {
				t.Fatalf("%v: round trip diverges at %d", kind, i)
			}
		}
	}
}

func TestSetFlatParamsBadLengthPanics(t *testing.T) {
	m := NewModel(KindGCN, []int{3, 2}, 1)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	m.SetFlatParams(make([]float32, 1))
}

func TestForwardShapes(t *testing.T) {
	adj := smallGraph()
	rng := rand.New(rand.NewSource(1))
	x := randomFeatures(rng, 6, 5)
	m := NewModel(KindGCN, []int{5, 8, 3}, 1)
	acts := m.Forward(adj, x)
	if len(acts.Z) != 2 || len(acts.H) != 3 {
		t.Fatalf("activation counts %d/%d", len(acts.Z), len(acts.H))
	}
	if acts.H[2].Rows != 6 || acts.H[2].Cols != 3 {
		t.Fatalf("output shape %dx%d", acts.H[2].Rows, acts.H[2].Cols)
	}
	// Hidden layer is ReLU'd; output layer raw logits.
	for _, v := range acts.H[1].Data {
		if v < 0 {
			t.Fatalf("hidden activation negative: %v", v)
		}
	}
}

// TestForwardOrderInvariance checks the DGL message-aggregating optimisation:
// Â(HW) must equal (ÂH)W regardless of which path the dimension heuristic
// takes.
func TestForwardOrderInvariance(t *testing.T) {
	adj := smallGraph()
	rng := rand.New(rand.NewSource(2))
	// in > out triggers HW-first; in < out triggers aggregate-first.
	for _, dims := range [][]int{{8, 3}, {3, 8}} {
		x := randomFeatures(rng, 6, dims[0])
		m := NewModel(KindGCN, dims, 3)
		got := m.Forward(adj, x).Z[0]
		want := adj.SpMM(x).MatMul(m.Layers[0].W)
		want.AddRowVector(m.Layers[0].Bias)
		if !got.Equal(want, 1e-4) {
			t.Fatalf("dims %v: order-dependent forward", dims)
		}
	}
}

// numericalGrad approximates dLoss/dp via central differences on one flat
// parameter index.
func numericalGrad(m *Model, adj *graph.NormAdjacency, x *tensor.Matrix, labels []int, idx int) float64 {
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

// TestBackwardMatchesNumericalGradient is the load-bearing correctness test:
// analytic gradients from the CAGNET equations must match central
// differences for both model kinds.
func TestBackwardMatchesNumericalGradient(t *testing.T) {
	adj := smallGraph()
	rng := rand.New(rand.NewSource(4))
	x := randomFeatures(rng, 6, 4)
	labels := []int{0, 1, 2, 0, 1, 2}
	for _, kind := range []Kind{KindGCN, KindSAGE} {
		m := NewModel(kind, []int{4, 5, 3}, 5)
		acts := m.Forward(adj, x)
		_, gradOut := SoftmaxCrossEntropy(acts.H[len(acts.H)-1], labels, nil)
		grads := m.Backward(adj, acts, gradOut)
		analytic := (&Gradients{Layers: grads.Layers}).Flatten()
		// Spot-check a spread of parameter indices (full sweep is slow).
		nParams := m.ParamCount()
		for _, idx := range []int{0, 1, nParams / 3, nParams / 2, nParams - 2, nParams - 1} {
			num := numericalGrad(m, adj, x, labels, idx)
			got := float64(analytic[idx])
			if math.Abs(num-got) > 1e-2*(1+math.Abs(num)) {
				t.Fatalf("%v: grad[%d] = %v, numerical %v", kind, idx, got, num)
			}
		}
	}
}

func TestBackwardBiasGradIsColSum(t *testing.T) {
	adj := smallGraph()
	rng := rand.New(rand.NewSource(6))
	x := randomFeatures(rng, 6, 4)
	m := NewModel(KindGCN, []int{4, 3}, 5)
	acts := m.Forward(adj, x)
	gradOut := randomFeatures(rng, 6, 3)
	grads := m.Backward(adj, acts, gradOut)
	want := gradOut.ColSums()
	for j, v := range grads.Layers[0].Bias {
		if math.Abs(float64(v-want[j])) > 1e-5 {
			t.Fatalf("bias grad %d = %v, want %v", j, v, want[j])
		}
	}
}

func TestSoftmaxCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln 4 regardless of label.
	logits := tensor.New(2, 4)
	loss, grad := SoftmaxCrossEntropy(logits, []int{1, 3}, nil)
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("loss = %v, want ln 4", loss)
	}
	// Gradient rows: (0.25 - onehot)/2.
	if math.Abs(float64(grad.At(0, 1))-(0.25-1)/2) > 1e-6 {
		t.Fatalf("grad at label = %v", grad.At(0, 1))
	}
	if math.Abs(float64(grad.At(0, 0))-0.25/2) > 1e-6 {
		t.Fatalf("grad off label = %v", grad.At(0, 0))
	}
}

func TestSoftmaxCrossEntropyMask(t *testing.T) {
	logits := tensor.FromSlice(2, 2, []float32{5, 0, 0, 5})
	mask := []bool{true, false}
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 0}, mask)
	if loss <= 0 || math.IsNaN(loss) {
		t.Fatalf("masked loss = %v", loss)
	}
	// Unmasked row contributes no gradient.
	if grad.At(1, 0) != 0 || grad.At(1, 1) != 0 {
		t.Fatalf("unmasked row has gradient: %v", grad.Row(1))
	}
	// Empty mask: zero loss, zero grad.
	loss, grad = SoftmaxCrossEntropy(logits, []int{0, 0}, []bool{false, false})
	if loss != 0 || grad.AbsSum() != 0 {
		t.Fatalf("empty mask not zero: %v %v", loss, grad.AbsSum())
	}
}

func TestSoftmaxCrossEntropyGradRowsSumToZero(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	logits := randomFeatures(rng, 10, 6)
	labels := make([]int, 10)
	for i := range labels {
		labels[i] = rng.Intn(6)
	}
	_, grad := SoftmaxCrossEntropy(logits, labels, nil)
	for i := 0; i < 10; i++ {
		var sum float64
		for _, v := range grad.Row(i) {
			sum += float64(v)
		}
		if math.Abs(sum) > 1e-6 {
			t.Fatalf("grad row %d sums to %v", i, sum)
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice(3, 2, []float32{1, 0, 0, 1, 1, 0})
	labels := []int{0, 1, 1}
	if got := Accuracy(logits, labels, []int{0, 1, 2}); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("Accuracy = %v", got)
	}
	if got := Accuracy(logits, labels, nil); got != 0 {
		t.Fatalf("empty idx should be 0, got %v", got)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimise f(w) = Σ (w_i - i)² with gradient 2(w_i - i).
	n := 5
	w := make([]float32, n)
	opt := NewAdam(0.1, n)
	g := make([]float32, n)
	for step := 0; step < 2000; step++ {
		for i := range g {
			g[i] = 2 * (w[i] - float32(i))
		}
		opt.Step(w, g)
	}
	for i, v := range w {
		if math.Abs(float64(v)-float64(i)) > 0.01 {
			t.Fatalf("w[%d] = %v, want %d", i, v, i)
		}
	}
}

func TestAdamStepLengthMismatchPanics(t *testing.T) {
	opt := NewAdam(0.1, 3)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	opt.Step(make([]float32, 2), make([]float32, 2))
}

func TestTrainFullGraphLearnsCora(t *testing.T) {
	d := datasets.MustLoad("cora")
	m := NewModel(KindGCN, []int{d.NumFeatures(), 16, d.NumClasses}, 1)
	res := TrainFullGraph(m, d, 60, 0.01)
	if res.TestAccuracy < 0.70 {
		t.Fatalf("GCN only reached %.3f test accuracy on cora preset", res.TestAccuracy)
	}
	// Loss must broadly decrease.
	if res.LossHistory[len(res.LossHistory)-1] >= res.LossHistory[0] {
		t.Fatalf("loss did not decrease: %v → %v", res.LossHistory[0], res.LossHistory[len(res.LossHistory)-1])
	}
}

func TestTrainFullGraphSAGELearns(t *testing.T) {
	d := datasets.MustLoad("pubmed")
	m := NewModel(KindSAGE, []int{d.NumFeatures(), 16, d.NumClasses}, 1)
	res := TrainFullGraph(m, d, 40, 0.01)
	if res.TestAccuracy < 0.70 {
		t.Fatalf("SAGE only reached %.3f test accuracy on pubmed preset", res.TestAccuracy)
	}
}

func BenchmarkForward2LayerCora(b *testing.B) {
	d := datasets.MustLoad("cora")
	adj := graph.Normalize(d.Graph)
	m := NewModel(KindGCN, []int{d.NumFeatures(), 16, d.NumClasses}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(adj, d.Features)
	}
}

func BenchmarkTrainEpochCora(b *testing.B) {
	d := datasets.MustLoad("cora")
	adj := graph.Normalize(d.Graph)
	m := NewModel(KindGCN, []int{d.NumFeatures(), 16, d.NumClasses}, 1)
	flat := m.FlattenParams()
	opt := NewAdam(0.01, len(flat))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acts := m.Forward(adj, d.Features)
		_, gradOut := SoftmaxCrossEntropy(acts.H[len(acts.H)-1], d.Labels, d.TrainMask)
		grads := m.Backward(adj, acts, gradOut)
		opt.Step(flat, grads.Flatten())
		m.SetFlatParams(flat)
	}
}

// newRand is a tiny helper shared by sibling test files.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
