package nn

import (
	"math"
	"testing"

	"ecgraph/internal/tensor"
)

// fixed 4-vertex, 2-class scenario: predictions [0,0,1,1], truth [0,1,1,1].
func evalFixture() (*tensor.Matrix, []int, []int) {
	logits := tensor.FromSlice(4, 2, []float32{
		2, 1, // pred 0
		3, 0, // pred 0
		0, 5, // pred 1
		1, 2, // pred 1
	})
	labels := []int{0, 1, 1, 1}
	idx := []int{0, 1, 2, 3}
	return logits, labels, idx
}

func TestConfusionMatrix(t *testing.T) {
	logits, labels, idx := evalFixture()
	cm := ConfusionMatrix(logits, labels, idx, 2)
	// truth 0: predicted 0 once. truth 1: predicted 0 once, 1 twice.
	if cm[0][0] != 1 || cm[0][1] != 0 || cm[1][0] != 1 || cm[1][1] != 2 {
		t.Fatalf("confusion matrix wrong: %v", cm)
	}
}

func TestMacroF1KnownValue(t *testing.T) {
	logits, labels, idx := evalFixture()
	// class 0: precision 1/2, recall 1/1 → F1 = 2/3.
	// class 1: precision 2/2, recall 2/3 → F1 = 4/5.
	want := (2.0/3 + 4.0/5) / 2
	if got := MacroF1(logits, labels, idx, 2); math.Abs(got-want) > 1e-9 {
		t.Fatalf("MacroF1 = %v, want %v", got, want)
	}
}

func TestMacroF1PerfectAndEmpty(t *testing.T) {
	logits := tensor.FromSlice(2, 2, []float32{5, 0, 0, 5})
	labels := []int{0, 1}
	if got := MacroF1(logits, labels, []int{0, 1}, 2); got != 1 {
		t.Fatalf("perfect MacroF1 = %v", got)
	}
	if got := MacroF1(logits, labels, nil, 2); got != 0 {
		t.Fatalf("empty idx MacroF1 = %v", got)
	}
}

func TestMacroF1SkipsAbsentClasses(t *testing.T) {
	// 3 declared classes but class 2 never appears: mean over 2 classes.
	logits := tensor.FromSlice(2, 3, []float32{5, 0, 0, 0, 5, 0})
	labels := []int{0, 1}
	if got := MacroF1(logits, labels, []int{0, 1}, 3); got != 1 {
		t.Fatalf("MacroF1 with absent class = %v, want 1", got)
	}
}
