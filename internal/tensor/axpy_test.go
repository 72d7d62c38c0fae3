package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// eachKernel runs f under every loop Axpy4 and Axpy can dispatch to on this
// machine: the vector body where there is one, and the pure-Go loops.
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
// the register allocator's choice (it differs between the terms of Axpy4's
// loop).
func sameLanes(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for j, v := range got {
		if math.Float32bits(v) != math.Float32bits(want[j]) && !(v != v && want[j] != want[j]) {
			t.Fatalf("%s over %d elements: lane %d = %v (%#08x), pure Go %v (%#08x)", what, len(got), j, v, math.Float32bits(v), want[j], math.Float32bits(want[j]))
		}
	}
}

// checkAxpy runs Axpy4 and then Axpy with the vector body and with the
// pure-Go loops from the same inputs (o is left alone) and compares them.
func checkAxpy(t *testing.T, o []float32, a [4]float32, b [4][]float32) {
	t.Helper()
	defer func(was bool) { haveAVX2 = was }(haveAVX2)
	var res [2][]float32 // pure Go, then vector
	for i, on := range []bool{false, true} {
		haveAVX2 = on
		res[i] = append([]float32(nil), o...)
		Axpy4(res[i], a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3])
	}
	sameLanes(t, "Axpy4", res[1], res[0])
	for i, on := range []bool{false, true} {
		haveAVX2 = on
		Axpy(res[i], a[0], b[0])
	}
	sameLanes(t, "Axpy", res[1], res[0])
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

// TestAxpyKernelsMatchPureGo holds the vector body to the pure-Go loops at
// every length around its 8-lane step, from slices starting at every offset
// of a backing array (so most loads and stores are unaligned), over odd
// coefficients and data.
func TestAxpyKernelsMatchPureGo(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no vector body on this machine: Axpy4 and Axpy are the pure-Go loops")
	}
	rng := rand.New(rand.NewSource(16))
	const maxLen, maxOff = 67, 7
	var backing [5][]float32
	for i := range backing {
		backing[i] = make([]float32, maxOff+maxLen)
	}
	for n := 0; n <= maxLen; n++ {
		for off := 0; off <= maxOff; off++ {
			for trial := 0; trial < 4; trial++ {
				for _, s := range backing {
					for j := range s {
						s[j] = oddFloat(rng)
					}
				}
				var a [4]float32
				var b [4][]float32
				for i := range a {
					a[i] = oddFloat(rng)
					// A b row may be longer than o; each starts at its own offset.
					start := (off + i) % (maxOff + 1)
					b[i] = backing[1+i][start : start+n+rng.Intn(maxOff+maxLen-start-n+1)]
				}
				checkAxpy(t, backing[0][off:off+n], a, b)
			}
		}
	}
}

// FuzzAxpy4 is the same property over arbitrary bit patterns: four
// coefficients, then five equally long rows, o first.
func FuzzAxpy4(f *testing.F) {
	seed := make([]byte, 16+5*4*19)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed, uint8(3))
	// Coefficients +Inf, NaN, the smallest denormal and -0 over the same rows.
	odd := append([]byte{0, 0, 0x80, 0x7f, 0, 0, 0xc0, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0x80}, seed[16:]...)
	f.Add(odd, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		if len(data) < 16 {
			return
		}
		var a [4]float32
		for i := range a {
			a[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		data = data[16:]
		n := len(data) / 4 / 5
		start := int(off % 8)
		var rows [5][]float32
		for i := range rows {
			rows[i] = make([]float32, start+n)[start:]
			for j := range rows[i] {
				rows[i][j] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*(i*n+j):]))
			}
		}
		checkAxpy(t, rows[0], a, [4][]float32{rows[1], rows[2], rows[3], rows[4]})
	})
}
