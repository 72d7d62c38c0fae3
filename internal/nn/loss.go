package nn

import (
	"math"

	"ecgraph/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy loss over the vertices
// selected by mask (nil mask means every vertex) and the gradient
// ∂L/∂Z^L = (softmax(Z) − onehot(y)) / |mask| on masked rows, zero
// elsewhere — the gradOut fed to Backward (Eq. 4 with σ = identity on the
// output layer, the paper's softmax+entropyloss head from Alg. 1).
func SoftmaxCrossEntropy(logits *tensor.Matrix, labels []int, mask []bool) (float64, *tensor.Matrix) {
	if len(labels) != logits.Rows {
		panic("nn: labels length mismatch")
	}
	if mask != nil && len(mask) != logits.Rows {
		panic("nn: mask length mismatch")
	}
	grad := tensor.New(logits.Rows, logits.Cols)
	count := 0
	for i := 0; i < logits.Rows; i++ {
		if mask == nil || mask[i] {
			count++
		}
	}
	if count == 0 {
		return 0, grad
	}
	inv := float32(1 / float64(count))
	var loss float64
	for i := 0; i < logits.Rows; i++ {
		if mask != nil && !mask[i] {
			continue
		}
		row := logits.Row(i)
		// Stable log-softmax.
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - mx))
		}
		logZ := float64(mx) + math.Log(sum)
		y := labels[i]
		loss += logZ - float64(row[y])
		grow := grad.Row(i)
		for j, v := range row {
			p := float32(math.Exp(float64(v)-logZ)) * inv
			if j == y {
				p -= inv
			}
			grow[j] = p
		}
	}
	return loss / float64(count), grad
}

// Accuracy returns the fraction of vertices in idx whose arg-max logit
// matches the label.
func Accuracy(logits *tensor.Matrix, labels []int, idx []int) float64 {
	correct := 0
	for _, v := range idx {
		if tensor.ArgMax(logits.Row(v)) == labels[v] {
			correct++
		}
	}
	return HitRate(correct, len(idx))
}

// HitRate is Accuracy's ratio: hits of n, and 0 when n is 0.
func HitRate(hits, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(hits) / float64(n)
}
