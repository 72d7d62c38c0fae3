package ec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ecgraph/internal/compress"
	"ecgraph/internal/tensor"
)

// fullListResponder is the parent's top-layer getG responder, kept only
// here: it answers with every row of the pair's Needs list, zero rows of
// non-training vertices included. The tree's responder sees the training
// rows alone (DESIGN.md §10).
type fullListResponder struct {
	scheme string // "raw", "cp-bp", "resec"
	bits   int
	resec  *BackwardResponder
}

func (f *fullListResponder) respond(g *tensor.Matrix) []byte {
	switch f.scheme {
	case "raw":
		return RespondRaw(g)
	case "cp-bp":
		return RespondCompressOnlyGrad(g, f.bits)
	default:
		return f.resec.Respond(g, f.bits)
	}
}

// TestThinnedRespondMatchesFullList is the bit-for-bit argument as a
// property: for a gradient whose rows outside a mask are zero, responding
// with the masked rows alone and scattering the decode into zeros gives,
// element for element and over several epochs of carried residual, what
// responding with the full list and decoding gives — and the full-list
// residual never holds a nonzero on a masked-out row, so dropping those rows
// drops no state. Raw, Cp-bp and ResEC-BP at every width with a zero level.
func TestThinnedRespondMatchesFullList(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	type arm struct {
		scheme string
		bits   int
	}
	arms := []arm{{"raw", 0}}
	for _, b := range []int{2, 4, 8, 16} {
		arms = append(arms, arm{"cp-bp", b}, arm{"resec", b})
	}
	for _, a := range arms {
		for trial := 0; trial < 12; trial++ {
			rows, cols := 1+rng.Intn(70), 1+rng.Intn(20)
			keepFrac := []float64{0, 0.08, 0.5, 1}[trial%4]
			var kept []int
			for r := 0; r < rows; r++ {
				if rng.Float64() < keepFrac {
					kept = append(kept, r)
				}
			}
			label := fmt.Sprintf("%s B=%d %dx%d kept=%d", a.scheme, a.bits, rows, cols, len(kept))
			full := &fullListResponder{scheme: a.scheme, bits: a.bits, resec: NewBackwardResponder()}
			thin := &fullListResponder{scheme: a.scheme, bits: a.bits, resec: NewBackwardResponder()}
			scale := float32(math.Exp(rng.NormFloat64() * 3))
			for epoch := 0; epoch < 6; epoch++ {
				g := tensor.New(rows, cols)
				for _, r := range kept {
					for j := range g.Row(r) {
						if rng.Intn(8) > 0 { // training rows hold exact zeros too
							g.Row(r)[j] = scale * float32(rng.NormFloat64())
						}
					}
				}
				want := ParseMatrix(full.respond(g))
				payload := thin.respond(g.GatherRows(kept))
				shipped, got := ParseMatrix(payload), tensor.New(rows, cols)
				for k, r := range kept {
					copy(got.Row(r), shipped.Row(k))
				}
				for i, x := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(x) {
						t.Fatalf("%s epoch %d: element %d scattered %v (%#x), full list %v (%#x)", label, epoch,
							i, got.Data[i], math.Float32bits(got.Data[i]), x, math.Float32bits(x))
					}
				}
				// The packed parse the fold kernels consume decodes alike.
				if dense, blk := ParsePacked(payload); blk != nil {
					unpacked := blk.Dense()
					for k, r := range kept {
						for j, x := range unpacked.Row(k) {
							if math.Float32bits(x) != math.Float32bits(want.At(r, j)) {
								t.Fatalf("%s epoch %d: packed row %d col %d %v, full list %v", label, epoch, r, j, x, want.At(r, j))
							}
						}
					}
				} else if dense.Rows != len(kept) {
					t.Fatalf("%s: payload has %d rows for %d kept", label, dense.Rows, len(kept))
				}
				if a.scheme != "resec" {
					continue
				}
				fd, td := full.resec.Residual(), thin.resec.Residual()
				isKept := make([]bool, rows)
				for k, r := range kept {
					isKept[r] = true
					for j, x := range fd.Row(r) {
						if math.Float32bits(td.At(k, j)) != math.Float32bits(x) {
							t.Fatalf("%s epoch %d: residual of row %d col %d thinned %v, full list %v", label, epoch, r, j, td.At(k, j), x)
						}
					}
				}
				for r := 0; r < rows; r++ {
					if isKept[r] {
						continue
					}
					for j, x := range fd.Row(r) {
						if math.Float32bits(x) != 0 {
							t.Fatalf("%s epoch %d: masked-out row %d col %d holds residual %v (%#x)", label, epoch, r, j, x, math.Float32bits(x))
						}
					}
				}
			}
		}
	}
}

// TestOneBitAndTopKSeeZeroRows records why B = 1 and Top-K are outside the
// bitwise claim (DESIGN.md §2): the sign grid has no zero level and scales
// by the mean over all entries, and Top-K budgets k from the matrix size, so
// for them a zero row is not free — the full-list responder ships sign noise
// on it / spends budget by its size, and thinning changes the numbers.
func TestOneBitAndTopKSeeZeroRows(t *testing.T) {
	g := tensor.New(10, 4) // one training row of ten
	copy(g.Row(3), []float32{0.5, -1, 0.25, 2})
	thin := g.GatherRows([]int{3})

	full1 := compress.CompressZeroCentered(g, 1).Decompress()
	if full1.At(0, 0) == 0 {
		t.Fatalf("B=1 decoded a zero row to zero; the sign grid has no zero level")
	}
	thin1 := compress.CompressZeroCentered(thin, 1).Decompress()
	if thin1.At(0, 0) == full1.At(3, 0) {
		t.Fatalf("B=1 scale ignores zero rows: %v both ways", thin1.At(0, 0))
	}
	if kFull, kThin := compress.KForBudget(len(g.Data), 4), compress.KForBudget(len(thin.Data), 4); kFull <= kThin {
		t.Fatalf("Top-K budget does not grow with zero rows: %d vs %d", kFull, kThin)
	}
}
