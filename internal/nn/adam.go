package nn

import (
	"fmt"
	"math"
)

// Adam is the elementwise Adam optimiser over a flat parameter vector. The
// paper's servers run Adam on the globally summed gradients (Alg. 2 line 3);
// operating on flat vectors lets each parameter server own a contiguous
// range with independent moment state.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	m, v []float64 // first/second moment estimates
	t    int       // timestep
}

// NewAdam returns an Adam optimiser with the usual defaults
// (β1=0.9, β2=0.999, ε=1e-8) for a parameter vector of length n.
func NewAdam(lr float64, n int) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, m: make([]float64, n), v: make([]float64, n)}
}

// Snapshot returns copies of the moment vectors and the timestep, so a
// checkpoint can capture the optimiser mid-run.
func (a *Adam) Snapshot() (m, v []float64, t int) {
	return append([]float64(nil), a.m...), append([]float64(nil), a.v...), a.t
}

// Restore overwrites the moment vectors and timestep from a snapshot taken
// with Snapshot; resuming from a checkpoint continues the exact bias
// correction schedule instead of restarting it.
func (a *Adam) Restore(m, v []float64, t int) error {
	if len(m) != len(a.m) || len(v) != len(a.v) {
		return fmt.Errorf("nn: Adam.Restore length mismatch m=%d v=%d state=%d", len(m), len(v), len(a.m))
	}
	copy(a.m, m)
	copy(a.v, v)
	a.t = t
	return nil
}

// Step applies one Adam update to w in place given gradient g.
func (a *Adam) Step(w, g []float32) {
	if len(w) != len(a.m) || len(g) != len(a.m) {
		panic(fmt.Sprintf("nn: Adam.Step length mismatch w=%d g=%d state=%d", len(w), len(g), len(a.m)))
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i := range w {
		gi := float64(g[i])
		a.m[i] = a.Beta1*a.m[i] + (1-a.Beta1)*gi
		a.v[i] = a.Beta2*a.v[i] + (1-a.Beta2)*gi*gi
		mHat := a.m[i] / c1
		vHat := a.v[i] / c2
		w[i] -= float32(a.LR * mHat / (math.Sqrt(vHat) + a.Eps))
	}
}
