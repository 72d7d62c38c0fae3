//go:build !amd64

package tensor

// Only amd64 has a vector body (axpy_amd64.s); everywhere else AxpyGather is
// its pure-Go loop and this is never called.
var haveAVX2 = false

func axpyGatherLanes(o, w []float32, idx []int32, base []float32, bias, stride, last int) int {
	return 0
}
