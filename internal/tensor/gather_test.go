package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// eachKernel runs f under every loop AxpyGather can dispatch to on this
// machine: the vector body where there is one, and the pure-Go loop.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	defer func(was bool) { haveAVX2 = was }(haveAVX2)
	for _, on := range []bool{haveAVX2, false} {
		haveAVX2 = on
		t.Run(Kernel(), f)
		if !on {
			break
		}
	}
}

// sameLanes compares two results of the one loop lane by lane: the same bits,
// except that a NaN need only meet a NaN. IEEE 754 leaves the payload of a
// NaN made from two NaNs to the implementation; x86 takes the operand the
// instruction names first, and which that is in the compiled scalar loop is
// the register allocator's choice (it differs between the four terms of
// AxpyGather's pure-Go pass).
func sameLanes(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for j, v := range got {
		if math.Float32bits(v) != math.Float32bits(want[j]) && !(v != v && want[j] != want[j]) {
			t.Fatalf("%s over %d elements: lane %d = %v (%#08x), want %v (%#08x)", what, len(got), j, v, math.Float32bits(v), want[j], math.Float32bits(want[j]))
		}
	}
}

// oddValues are the operands a lane must treat as the scalar loop does: both
// zeros, the smallest and largest denormals, the smallest normal, values
// whose products overflow or underflow, both infinities (Inf·0 and Inf−Inf
// make NaNs mid-sum) and NaN itself.
var oddValues = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), math.Float32frombits(0x807fffff), math.Float32frombits(0x00800000),
	math.MaxFloat32, -math.MaxFloat32, 1e-30, -1e-30, 1e30,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

// oddFloat draws an ordinary value three times in four, else an odd one.
func oddFloat(rng *rand.Rand) float32 {
	if rng.Intn(4) == 0 {
		return oddValues[rng.Intn(len(oddValues))]
	}
	return float32(rng.NormFloat64())
}

// checkGather runs AxpyGather on a copy of o under the current kernel and
// holds it, lane by lane, to the same terms written out as one scalar chain
// per element: o[j] += float32(w·b[j]), term after term.
func checkGather(t *testing.T, o, w []float32, idx []int32, base []float32, bias, stride int) {
	t.Helper()
	got := append([]float32(nil), o...)
	AxpyGather(got, w, idx, base, bias, stride)
	want := append([]float32(nil), o...)
	for k, c := range idx {
		r := (int(c) - bias) * stride
		for j, b := range base[r : r+len(o)] {
			want[j] += float32(w[k] * b)
		}
	}
	sameLanes(t, "AxpyGather", got, want)
}

// TestAxpyGatherMatchesScalarChain holds the row kernel to the scalar chain
// at every width through the 64/32/16/8 panels and the pure-Go tail (1…136),
// every term count up to 40 with rows repeated, over odd values — both
// zeros, denormals, magnitudes whose products overflow, infinities, NaN —
// with a bias, a stride wider than the row and o at every alignment.
func TestAxpyGatherMatchesScalarChain(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(26))
		for width := 1; width <= 136; width++ {
			for terms := 0; terms <= 40; terms += 1 + terms/8 {
				stride := width + rng.Intn(3)
				nRows := 1 + rng.Intn(12) // few rows: most terms repeat one
				base := make([]float32, nRows*stride)
				for j := range base {
					base[j] = oddFloat(rng)
				}
				bias := rng.Intn(5)
				w, idx := make([]float32, terms), make([]int32, terms)
				for k := range w {
					w[k], idx[k] = oddFloat(rng), int32(bias+rng.Intn(nRows))
				}
				off := rng.Intn(8)
				o := make([]float32, off+width)[off:]
				for j := range o {
					o[j] = oddFloat(rng)
				}
				checkGather(t, o, w, idx, base, bias, stride)
			}
		}
	})
}

// TestAxpyGatherRejectsRowsOutsideBase checks that every input that would
// read outside base panics: an index past the last row, one below the bias,
// a last row cut short, a base shorter than o, a stride below one, and more
// weights than indices.
func TestAxpyGatherRejectsRowsOutsideBase(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		for _, width := range []int{3, 8, 24, 100} {
			base := make([]float32, 4*width)
			o := make([]float32, width)
			w := []float32{1, 1, 1, 1, 1}
			cases := map[string]func(){
				"past the end":      func() { AxpyGather(o, w, []int32{2, 3, 4, 5, 6}, base, 2, width) },
				"below the bias":    func() { AxpyGather(o, w, []int32{2, 3, 4, 1, 2}, base, 2, width) },
				"short last row":    func() { AxpyGather(o, w[:1], []int32{3}, base[:4*width-1], 0, width) },
				"short base":        func() { AxpyGather(o, w[:1], []int32{0}, base[:width-1], 0, width) },
				"stride zero":       func() { AxpyGather(o, w[:1], []int32{0}, base, 0, 0) },
				"lengths disagree":  func() { AxpyGather(o, w, []int32{0}, base, 0, width) },
				"huge index":        func() { AxpyGather(o, w[:1], []int32{math.MaxInt32}, base, 0, width) },
				"negative row":      func() { AxpyGather(o, w[:1], []int32{-1}, base, 0, width) },
				"bias past the end": func() { AxpyGather(o, w[:1], []int32{0}, base, math.MinInt64, width) },
			}
			for name, call := range cases {
				func() {
					defer func() {
						if r := recover(); r == nil || !strings.HasPrefix(fmt.Sprint(r), "tensor: AxpyGather") {
							t.Errorf("width %d, %s: recovered %v, want an AxpyGather panic", width, name, r)
						}
					}()
					call()
				}()
			}
		}
	})
}

// FuzzAxpyGather is the same property over arbitrary bit patterns: the
// first byte picks the width, the second the row count; then come the
// weights with their row bytes, and the floats of o and base.
func FuzzAxpyGather(f *testing.F) {
	seed := make([]byte, 2+6*5+4*(19+3*19))
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	seed[0], seed[1] = 19, 3
	f.Add(seed)
	wide := append([]byte{72, 2}, seed[2:]...)
	f.Add(append(wide, make([]byte, 4*(72+2*72))...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		width, nRows := 1+int(data[0])%136, 1+int(data[1])%8
		data = data[2:]
		terms := min(40, len(data)/5)
		w, idx := make([]float32, terms), make([]int32, terms)
		for k := range w {
			w[k] = math.Float32frombits(binary.LittleEndian.Uint32(data[5*k:]))
			idx[k] = int32(data[5*k+4]) % int32(nRows)
		}
		data = data[5*terms:]
		floats := make([]float32, width+nRows*width)
		for j := range floats {
			if 4*j+4 <= len(data) {
				floats[j] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*j:]))
			}
		}
		for _, on := range []bool{haveAVX2, false} {
			func() {
				defer func(was bool) { haveAVX2 = was }(haveAVX2)
				haveAVX2 = on
				checkGather(t, floats[:width], w, idx, floats[width:], 0, width)
			}()
		}
	})
}
