package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ecgraph/internal/compress"
	"ecgraph/internal/tensor"
)

// packedFixture builds a nGhost×cols ghost operand the way the exchange
// layer does — a few per-peer payloads landing in their slot ranges, some
// quantised (kept packed), some dense (installed by reference) — together
// with the decode oracle: the float matrix the old path would have
// materialised (Decompress output for packed peers, raw rows for dense
// ones). denseFrac is the probability a peer's payload stays dense;
// degenerate forces constant payloads so the lo==hi domain is covered.
// unsetFrac is the probability a slot is one its peer's payload does not
// cover (the top-layer getG list, DESIGN.md §10): payload row k lands at the
// k-th covered slot, the others stay unset in the operand and are explicit
// +0 rows in the oracle.
func packedFixture(rng *rand.Rand, nGhost, cols, bits int, zc bool,
	denseFrac, unsetFrac float64, degenerate bool) (*tensor.Matrix, *GhostOperand) {
	oracle := tensor.New(nGhost, cols)
	op := NewGhostHybrid(nGhost, cols)
	for base := 0; base < nGhost; {
		n := 1 + rng.Intn(nGhost-base)
		var slots []int
		for r := 0; r < n; r++ {
			if unsetFrac == 0 || rng.Float64() >= unsetFrac {
				slots = append(slots, base+r)
			}
		}
		m := tensor.New(len(slots), cols)
		if degenerate {
			m.Fill(rng.Float32()*4 - 2)
		} else {
			for i := range m.Data {
				m.Data[i] = rng.Float32()*2 - 1
			}
		}
		if rng.Float64() < denseFrac {
			for k, slot := range slots {
				copy(oracle.Row(slot), m.Row(k))
				op.SetRowDense(slot, oracle.Row(slot))
			}
		} else {
			var q *compress.Quantized
			if zc {
				q = compress.CompressZeroCentered(m, bits)
			} else {
				q = compress.Compress(m, bits)
			}
			dec, blk := q.Decompress(), q.Block()
			for k, slot := range slots {
				copy(oracle.Row(slot), dec.Row(k))
				op.SetRowPacked(slot, blk, k)
			}
		}
		base += n
	}
	return oracle, op
}

// packedBitwiseTrial asserts, for one random scenario, that every packed
// kernel schedule — full-output, compact direct, compact tiled, with and
// without an arena — produces bit-identical float32 output to the decode
// oracle (Decompress + the dense kernels).
func packedBitwiseTrial(t testing.TB, rng *rand.Rand) {
	nOwned := 1 + rng.Intn(80)
	nGhost := rng.Intn(61)
	deg := 1 + rng.Intn(6)
	cols := 1 + rng.Intn(40)
	bits := compress.ValidBits[rng.Intn(len(compress.ValidBits))]
	zc := rng.Intn(2) == 0
	denseFrac := []float64{0, 0.35, 1}[rng.Intn(3)]
	degenerate := rng.Intn(10) == 0
	unsetFrac := []float64{0, 0.5, 0.92}[rng.Intn(3)]

	a := randomLocalCSR(rng, nOwned, nGhost, deg)
	var oracle *tensor.Matrix
	var op *GhostOperand
	if nGhost > 0 {
		oracle, op = packedFixture(rng, nGhost, cols, bits, zc, denseFrac, unsetFrac, degenerate)
	} else {
		op = NewGhostHybrid(0, cols)
	}
	label := fmt.Sprintf("owned=%d ghost=%d deg=%d cols=%d bits=%d zc=%v dense=%v unset=%v degen=%v",
		nOwned, nGhost, deg, cols, bits, zc, denseFrac, unsetFrac, degenerate)

	// Full-output kernel vs SpMMGhostInto.
	want := tensor.New(nOwned, cols)
	a.SpMMGhostInto(oracle, want)
	got := tensor.New(nOwned, cols)
	a.SpMMGhostPacked(op, got)
	for i, w := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(w) {
			t.Fatalf("%s: SpMMGhostPacked[%d]=%v want %v", label, i, got.Data[i], w)
		}
	}

	// Compact kernel under every schedule vs SpMMGhostCompact.
	wantC := a.SpMMGhostCompact(oracle)
	defer func() { tileMode = 0 }()
	for _, mode := range []int{0, 1, 2} {
		tileMode = mode
		for _, ar := range []*tensor.Arena{nil, tensor.NewArena(16)} {
			gotC := a.SpMMGhostCompactPacked(op, ar)
			if (gotC == nil) != (wantC == nil) {
				t.Fatalf("%s mode=%d: compact nil mismatch: got %v want %v", label, mode, gotC == nil, wantC == nil)
			}
			if wantC == nil {
				continue
			}
			for i, w := range wantC.Data {
				if math.Float32bits(gotC.Data[i]) != math.Float32bits(w) {
					t.Fatalf("%s mode=%d arena=%v: compact[%d]=%v want %v",
						label, mode, ar != nil, i, gotC.Data[i], w)
				}
			}
		}
	}
}

// TestSpMMGhostPackedBitwise is the property test behind the packed-domain
// SpMM: across random bit widths, shapes, degenerate domains, zero-centred
// grids, dense/packed peer mixes and unset slots, computing on the wire
// format is bit-for-bit (−0 ≠ +0) equal to decode-then-SpMM.
func TestSpMMGhostPackedBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(20240803))
	for trial := 0; trial < 120; trial++ {
		packedBitwiseTrial(t, rng)
	}
}

// FuzzSpMMGhostPackedBitwise fuzzes the same property over arbitrary seeds;
// plain `go test` runs the seed corpus, `-fuzz` explores further.
func FuzzSpMMGhostPackedBitwise(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 4096, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		packedBitwiseTrial(t, rand.New(rand.NewSource(seed)))
	})
}

// TestSpMMGhostUnsetSlotsAreZeroRows pins the unset-slot rule under both
// forced schedules: an operand whose uncovered slots are unset folds to the
// same bits as one carrying explicit zero rows there — dense +0 rows, and
// −0 rows, which the skipped terms w·(−0) = ∓0 would equally leave alone.
func TestSpMMGhostUnsetSlotsAreZeroRows(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	negZero := float32(math.Copysign(0, -1))
	defer func() { tileMode = 0 }()
	for trial := 0; trial < 40; trial++ {
		nGhost, cols := 8+rng.Intn(120), 1+rng.Intn(24)
		a := randomLocalCSR(rng, 1+rng.Intn(90), nGhost, 1+rng.Intn(8))
		bits := []int{2, 4, 8, 16}[rng.Intn(4)]
		_, unset := packedFixture(rng, nGhost, cols, bits, true, 0.3, 0.8, false)
		for _, zero := range []float32{0, negZero} {
			explicit := NewGhostHybrid(nGhost, cols)
			zrow := make([]float32, cols)
			for j := range zrow {
				zrow[j] = zero
			}
			for r := 0; r < nGhost; r++ {
				switch {
				case unset.rowF[r] != nil:
					explicit.SetRowDense(r, unset.rowF[r])
				case unset.rowB[r] != nil:
					explicit.SetRowPacked(r, unset.rowB[r], int(unset.rowIx[r]))
				default:
					explicit.SetRowDense(r, zrow)
				}
			}
			for _, mode := range []int{1, 2} {
				tileMode = mode
				want := a.SpMMGhostCompactPacked(explicit, nil)
				got := a.SpMMGhostCompactPacked(unset, tensor.NewArena(16))
				if (got == nil) != (want == nil) {
					t.Fatalf("trial %d mode %d: nil mismatch", trial, mode)
				}
				if want == nil {
					continue
				}
				for i, w := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(w) {
						t.Fatalf("trial %d mode %d zero=%v: [%d]=%v (%#x) want %v (%#x)", trial, mode, zero,
							i, got.Data[i], math.Float32bits(got.Data[i]), w, math.Float32bits(w))
					}
				}
			}
		}
	}
}

// TestSpMMGhostDenseOperandMatchesKernel pins the oracle wrapper: a
// GhostOperand over a fully decoded matrix runs the exact dense loop of
// SpMMGhostCompact, so -packed-spmm=false stays the bitwise reference.
func TestSpMMGhostDenseOperandMatchesKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomLocalCSR(rng, 50, 30, 4)
	ghost := randomMatrix(rng, 30, 12)
	want := a.SpMMGhostCompact(ghost)
	got := a.SpMMGhostCompactPacked(NewGhostDense(ghost), nil)
	for i, w := range want.Data {
		if got.Data[i] != w {
			t.Fatalf("dense operand[%d]=%v want %v", i, got.Data[i], w)
		}
	}
	if NewGhostDense(nil) != nil {
		t.Fatalf("NewGhostDense(nil) must pass nil through")
	}
}

// steadyFixture builds an inline-path-sized scenario (scalar work below the
// ParallelRows crossover) with a fully packed operand and a warmed arena —
// the steady-state shape of the per-layer ghost aggregation.
func steadyFixture(rng *rand.Rand) (*LocalCSR, *GhostOperand, *tensor.Arena) {
	a := randomLocalCSR(rng, 96, 64, 3)
	m := randomMatrix(rng, 64, 8)
	q := compress.Compress(m, 4)
	op := NewGhostHybrid(64, 8)
	op.SetRowsPacked(0, q.Block())
	ar := tensor.NewArena(0)
	for i := 0; i < 2; i++ { // warm: grow-on-Reset reaches steady capacity
		ar.Reset()
		a.SpMMGhostCompactPacked(op, ar)
	}
	ar.Reset()
	return a, op, ar
}

// TestSpMMGhostPackedZeroAlloc is the allocation gate: once the arena is
// warm, the packed compact kernel performs zero heap allocations per call
// under both the direct and the tiled schedule.
func TestSpMMGhostPackedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting skipped under -race: instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(9))
	a, op, ar := steadyFixture(rng)
	defer func() { tileMode = 0 }()
	for _, mode := range []int{1, 2} {
		tileMode = mode
		ar.Reset()
		a.SpMMGhostCompactPacked(op, ar) // first call under this mode may grow the arena
		allocs := testing.AllocsPerRun(200, func() {
			ar.Reset()
			a.SpMMGhostCompactPacked(op, ar)
		})
		if allocs != 0 {
			t.Fatalf("tileMode=%d: %v allocs/op on the packed steady-state path, want 0", mode, allocs)
		}
	}
}
