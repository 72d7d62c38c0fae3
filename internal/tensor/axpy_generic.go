//go:build !amd64

package tensor

// Only amd64 has a vector body (axpy_amd64.s); everywhere else Axpy4, Axpy
// and AxpyGather are their pure-Go loops and these are never called.
var haveAVX2 = false

func axpy4Lanes(o []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) int { return 0 }

func axpyLanes(o []float32, a float32, b []float32) int { return 0 }

func axpyGatherLanes(o, w []float32, idx []int32, base []float32, bias, stride, last int) int {
	return 0
}
