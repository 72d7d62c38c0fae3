package nn

import "ecgraph/internal/tensor"

// ConfusionMatrix counts predictions over the vertices in idx:
// cm[true][predicted]. Rows index the ground-truth class.
func ConfusionMatrix(logits *tensor.Matrix, labels []int, idx []int, numClasses int) [][]int {
	cm := make([][]int, numClasses)
	for i := range cm {
		cm[i] = make([]int, numClasses)
	}
	pred := logits.ArgMaxRows()
	for _, v := range idx {
		t, p := labels[v], pred[v]
		if t >= 0 && t < numClasses && p >= 0 && p < numClasses {
			cm[t][p]++
		}
	}
	return cm
}

// MacroF1 returns the unweighted mean of per-class F1 scores over the
// vertices in idx. Classes absent from both predictions and ground truth
// are excluded from the mean.
func MacroF1(logits *tensor.Matrix, labels []int, idx []int, numClasses int) float64 {
	cm := ConfusionMatrix(logits, labels, idx, numClasses)
	var sum float64
	counted := 0
	for c := 0; c < numClasses; c++ {
		tp := cm[c][c]
		fn, fp := 0, 0
		for o := 0; o < numClasses; o++ {
			if o != c {
				fn += cm[c][o]
				fp += cm[o][c]
			}
		}
		if tp+fn+fp == 0 {
			continue
		}
		counted++
		if tp == 0 {
			continue
		}
		precision := float64(tp) / float64(tp+fp)
		recall := float64(tp) / float64(tp+fn)
		sum += 2 * precision * recall / (precision + recall)
	}
	if counted == 0 {
		return 0
	}
	return sum / float64(counted)
}
