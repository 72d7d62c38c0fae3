package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ecgraph/internal/compress"
	"ecgraph/internal/tensor"
)

// SpMMGhostInto accumulates the ghost-column contributions into out:
// out[i] += Σ_{col≥NOwned} A[i,col]·ghost[col−NOwned]. A nil or empty ghost
// matrix is a no-op (a worker with no remote neighbours). Applied after
// SpMMOwnedInto on the same output it completes the product exactly as the
// fused SpMM would have.
func (a *LocalCSR) SpMMGhostInto(ghost, out *tensor.Matrix) {
	a.SpMMGhostPacked(NewGhostDense(ghost), out)
}

// SpMMGhostPacked accumulates the ghost-column contributions into out like
// SpMMGhostInto, over the hybrid operand. Nil or empty operands are a no-op.
// It is the full-output walk the compact fold is held to: the operand
// materialised whole, then each boundary row's ghost terms in one kernel
// call at the row's own index. The kernel's chain adds one term after
// another, so this matches the fold's strip-by-strip calls bit for bit.
func (a *LocalCSR) SpMMGhostPacked(g *GhostOperand, out *tensor.Matrix) {
	if g == nil || g.Rows == 0 {
		return
	}
	if out.Rows != a.NumRows() || out.Cols != g.Cols {
		panic(fmt.Sprintf("graph: SpMMGhostPacked output %dx%d, want %dx%d",
			out.Rows, out.Cols, a.NumRows(), g.Cols))
	}
	checkOperand("ghost fold", g.Rows, a.ghostRows)
	var base []float32
	if g.dense != nil {
		base = g.dense.Data
	} else {
		base = make([]float32, g.Rows*g.Cols)
		g.materialise(base, 0, g.Rows)
	}
	for _, i := range a.boundary {
		p, q := a.ghostStart[i], a.RowPtr[i+1]
		tensor.AxpyGather(out.Row(int(i)), a.Val[p:q], a.ColIdx[p:q], base, a.NOwned, g.Cols)
	}
}

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

// packedBitwiseTrial asserts, for one random scenario, that both packed
// folds — full-output, and compact with and without an arena — produce
// bit-identical float32 output to the decode oracle (Decompress + the dense
// folds), and that the oracle is the plain sum: each row's terms in storage
// order, one rounded product at a time. Widths reach 136 and a third of the
// trials have more ghost rows than one strip of decode scratch holds.
func packedBitwiseTrial(t testing.TB, rng *rand.Rand) {
	nOwned := 1 + rng.Intn(80)
	cols := 1 + rng.Intn(136)
	nGhost := rng.Intn(61)
	if rng.Intn(3) == 0 {
		nGhost = stripRows(cols) + rng.Intn(2*stripRows(cols))
	}
	deg := 1 + rng.Intn(6)
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

	// Full-output fold vs SpMMGhostInto, and that vs the plain sum.
	want := tensor.New(nOwned, cols)
	a.SpMMGhostInto(oracle, want)
	if nGhost > 0 {
		sameBits(t, label+": SpMMGhostInto vs the plain sum", want.Data, plainGhostSum(a, oracle).Data)
	}
	got := tensor.New(nOwned, cols)
	a.SpMMGhostPacked(op, got)
	sameBits(t, label+": SpMMGhostPacked", got.Data, want.Data)

	// Compact fold vs SpMMGhostCompact.
	wantC := a.SpMMGhostCompact(oracle)
	for _, ar := range []*tensor.Arena{nil, tensor.NewArena(16)} {
		gotC := a.SpMMGhostCompactPacked(op, ar)
		if (gotC == nil) != (wantC == nil) {
			t.Fatalf("%s: compact nil mismatch: got %v want %v", label, gotC == nil, wantC == nil)
		}
		if wantC != nil {
			sameBits(t, fmt.Sprintf("%s arena=%v: compact", label, ar != nil), gotC.Data, wantC.Data)
		}
	}
}

// plainGhostSum is the ghost half of A·[·;ghost] written out: per owned row,
// its ghost terms in storage order, each product rounded before its add.
func plainGhostSum(a *LocalCSR, ghost *tensor.Matrix) *tensor.Matrix {
	cols := ghost.Cols
	out := tensor.New(a.NumRows(), cols)
	for i := 0; i < a.NumRows(); i++ {
		for p := a.ghostStart[i]; p < a.RowPtr[i+1]; p++ {
			h := ghost.Row(int(a.ColIdx[p]) - a.NOwned)
			for j := range h {
				out.Data[i*cols+j] += float32(a.Val[p] * h[j])
			}
		}
	}
	return out
}

// sameBits fails unless got and want hold the same float32 bits (−0 ≠ +0).
func sameBits(t testing.TB, what string, got, want []float32) {
	t.Helper()
	for i, w := range want {
		if math.Float32bits(got[i]) != math.Float32bits(w) {
			t.Fatalf("%s: [%d]=%v (%#x) want %v (%#x)", what, i, got[i], math.Float32bits(got[i]), w, math.Float32bits(w))
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

// TestSpMMGhostUnsetSlotsAreZeroRows pins the unset-slot rule: an operand
// whose uncovered slots are unset folds to the same bits as one carrying
// explicit zero rows there — dense +0 rows, and −0 rows, whose terms
// w·(−0) = ∓0 leave an accumulator that started at +0 alone.
func TestSpMMGhostUnsetSlotsAreZeroRows(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	negZero := float32(math.Copysign(0, -1))
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
			want := a.SpMMGhostCompactPacked(explicit, nil)
			got := a.SpMMGhostCompactPacked(unset, tensor.NewArena(16))
			if (got == nil) != (want == nil) {
				t.Fatalf("trial %d: nil mismatch", trial)
			}
			if want != nil {
				sameBits(t, fmt.Sprintf("trial %d zero=%v", trial, zero), got.Data, want.Data)
			}
		}
	}
}

// TestSpMMGhostDenseOperandMatchesKernel pins the dense wrapper: a
// GhostOperand over a fully decoded matrix (the delayed-aggregation cache)
// folds to exactly what SpMMGhostCompact computes from the matrix itself.
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
// warm, the packed compact fold performs zero heap allocations per call.
func TestSpMMGhostPackedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting skipped under -race: instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(9))
	a, op, ar := steadyFixture(rng)
	allocs := testing.AllocsPerRun(200, func() {
		ar.Reset()
		a.SpMMGhostCompactPacked(op, ar)
	})
	if allocs != 0 {
		t.Fatalf("%v allocs/op on the packed steady-state path, want 0", allocs)
	}
}

// TestSpMMGhostConcurrentFolds folds one multi-strip operand through one
// LocalCSR from several goroutines at once, the first calls racing to build
// its strip-offset table, and holds every result to a serial fold's bits.
func TestSpMMGhostConcurrentFolds(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const cols = 64
	nGhost := 3*stripRows(cols) + 5
	_, op := packedFixture(rng, nGhost, cols, 2, false, 0.2, 0.3, false)
	build := func() *LocalCSR { return randomLocalCSR(rand.New(rand.NewSource(32)), 60, nGhost, 6) }
	want := build().SpMMGhostCompactPacked(op, nil)
	a := build()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got := a.SpMMGhostCompactPacked(op, tensor.NewArena(0))
				for j, w := range want.Data {
					if math.Float32bits(got.Data[j]) != math.Float32bits(w) {
						t.Errorf("concurrent fold [%d]=%v want %v", j, got.Data[j], w)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestColumnBeyondOperandPanics checks that every product in the package
// refuses an operand its CSR's columns run past with a panic instead of
// reading past it: the LocalCSR products before the kernel runs,
// NormAdjacency.SpMM, whose exported columns nothing records, in the kernel.
func TestColumnBeyondOperandPanics(t *testing.T) {
	// Row 0 reads owned column 2 and ghost slot 3; row 1 only owned ones.
	a := NewLocalCSR(3, []int32{0, 2, 3}, []int32{2, 6, 0}, []float32{1, 1, 1})
	short := tensor.New(2, 8) // one row short of either half
	full := tensor.New(3, 8)  // the owned half, and the output
	hybrid := NewGhostHybrid(3, 8)
	hybrid.SetRowsPacked(0, compress.Compress(short, 2).Block())
	bad := &NormAdjacency{N: 2, RowPtr: []int32{0, 1, 2}, ColIdx: []int32{1, 5}, Val: []float32{1, 1}}
	cases := map[string]func(){
		"LocalCSR.SpMM":                  func() { a.SpMM(tensor.New(6, 8)) },
		"LocalCSR.SpMMRows":              func() { a.SpMMRows(tensor.New(6, 8), []int32{1}) },
		"SpMMOwnedInto":                  func() { a.SpMMOwnedInto(short, tensor.New(2, 8)) },
		"SpMMGhostInto":                  func() { a.SpMMGhostInto(full, tensor.New(2, 8)) },
		"SpMMGhostCompact":               func() { a.SpMMGhostCompact(full) },
		"SpMMGhostPacked":                func() { a.SpMMGhostPacked(hybrid, tensor.New(2, 8)) },
		"SpMMGhostCompactPacked":         func() { a.SpMMGhostCompactPacked(hybrid, tensor.NewArena(0)) },
		"SpMMGhostCompactPacked (dense)": func() { a.SpMMGhostCompactPacked(NewGhostDense(full), nil) },
		"NormAdjacency.SpMM":             func() { bad.SpMM(tensor.New(2, 8)) },
	}
	for name, call := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}
