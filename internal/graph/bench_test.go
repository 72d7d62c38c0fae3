package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ecgraph/internal/tensor"
)

// randomLocalCSR builds a LocalCSR over nOwned rows with nGhost ghost slots
// and ~deg entries per row, columns deliberately interleaving owned and
// ghost positions (shuffled) so the constructor's owned-first reordering is
// actually exercised.
func randomLocalCSR(rng *rand.Rand, nOwned, nGhost, deg int) *LocalCSR {
	rowPtr := make([]int32, nOwned+1)
	var colIdx []int32
	var val []float32
	for i := 0; i < nOwned; i++ {
		k := 1 + rng.Intn(deg*2)
		cols := make([]int32, 0, k)
		seen := map[int32]bool{}
		for len(cols) < k {
			c := int32(rng.Intn(nOwned + nGhost))
			if !seen[c] {
				seen[c] = true
				cols = append(cols, c)
			}
		}
		rng.Shuffle(len(cols), func(a, b int) { cols[a], cols[b] = cols[b], cols[a] })
		for _, c := range cols {
			colIdx = append(colIdx, c)
			val = append(val, rng.Float32()*2-1)
		}
		rowPtr[i+1] = int32(len(colIdx))
	}
	return NewLocalCSR(nOwned, rowPtr, colIdx, val)
}

func randomMatrix(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

// TestLocalCSRSplitMatchesFusedBitwise is the overlap pipeline's numerical
// foundation: SpMMOwnedInto followed by SpMMGhostInto must reproduce the
// fused SpMM bit-for-bit (exact float32 ==, not a tolerance), because the
// overlap and sequential epoch paths are asserted identical downstream.
// Sizes cover both the inline kernel and the parallel row-band split.
func TestLocalCSRSplitMatchesFusedBitwise(t *testing.T) {
	cases := []struct{ nOwned, nGhost, deg, cols int }{
		{7, 5, 3, 4},     // serial path (rows*cols < threshold)
		{300, 90, 6, 32}, // parallel path
		{128, 0, 4, 16},  // no ghosts at all
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("owned%d-ghost%d-cols%d", tc.nOwned, tc.nGhost, tc.cols), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			a := randomLocalCSR(rng, tc.nOwned, tc.nGhost, tc.deg)
			owned := randomMatrix(rng, tc.nOwned, tc.cols)
			ghost := randomMatrix(rng, tc.nGhost, tc.cols)

			hcat := tensor.New(tc.nOwned+tc.nGhost, tc.cols)
			copy(hcat.Data[:len(owned.Data)], owned.Data)
			copy(hcat.Data[len(owned.Data):], ghost.Data)
			full := a.SpMM(hcat)

			split := tensor.New(tc.nOwned, tc.cols)
			a.SpMMOwnedInto(owned, split)
			a.SpMMGhostInto(ghost, split)

			for i, want := range full.Data {
				if split.Data[i] != want {
					t.Fatalf("element %d: split %v != fused %v (bit-for-bit required)",
						i, split.Data[i], want)
				}
			}
		})
	}
}

// TestLocalCSRSpMMRowsMatchesSpMM pins SpMMRows to the fused product: each
// requested row is SpMM's row bit for bit, whatever else is asked for —
// repeated rows, unsorted lists, one row alone, none at all — on the
// inline and the parallel paths.
func TestLocalCSRSpMMRowsMatchesSpMM(t *testing.T) {
	cases := []struct{ nOwned, nGhost, deg, cols int }{
		{7, 5, 3, 4},
		{300, 90, 6, 32},
		{128, 0, 4, 16},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("owned%d-ghost%d-cols%d", tc.nOwned, tc.nGhost, tc.cols), func(t *testing.T) {
			rng := rand.New(rand.NewSource(43))
			a := randomLocalCSR(rng, tc.nOwned, tc.nGhost, tc.deg)
			hcat := randomMatrix(rng, tc.nOwned+tc.nGhost, tc.cols)
			full := a.SpMM(hcat)
			shuffled := rng.Perm(tc.nOwned)
			lists := [][]int{
				shuffled,
				append(shuffled[:tc.nOwned/2:tc.nOwned/2], shuffled[:tc.nOwned/3]...),
				{tc.nOwned - 1, 0, tc.nOwned - 1, tc.nOwned / 2, 0},
				{tc.nOwned / 2},
				{},
			}
			for li, list := range lists {
				rows := make([]int32, len(list))
				for k, r := range list {
					rows[k] = int32(r)
				}
				got := a.SpMMRows(hcat, rows)
				if got.Rows != len(rows) || got.Cols != tc.cols {
					t.Fatalf("list %d: shape %dx%d, want %dx%d", li, got.Rows, got.Cols, len(rows), tc.cols)
				}
				for k, r := range list {
					for j, x := range got.Row(k) {
						if want := full.At(r, j); math.Float32bits(x) != math.Float32bits(want) {
							t.Fatalf("list %d: row %d (CSR row %d) col %d: %v, SpMM %v", li, k, r, j, x, want)
						}
					}
				}
			}
		})
	}
}

// TestLocalCSRGhostCompactMatchesInto pins the compact ghost kernel to the
// full-width one: scattering SpMMGhostCompact's rows back at BoundaryRows
// must reproduce SpMMGhostInto bit-for-bit, and rows off the boundary must
// be untouched.
func TestLocalCSRGhostCompactMatchesInto(t *testing.T) {
	cases := []struct{ nOwned, nGhost, deg, cols int }{
		{9, 4, 2, 5},
		{250, 80, 6, 16},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("owned%d-ghost%d", tc.nOwned, tc.nGhost), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			a := randomLocalCSR(rng, tc.nOwned, tc.nGhost, tc.deg)
			ghost := randomMatrix(rng, tc.nGhost, tc.cols)

			full := tensor.New(tc.nOwned, tc.cols)
			a.SpMMGhostInto(ghost, full)

			compact := a.SpMMGhostCompact(ghost)
			scattered := tensor.New(tc.nOwned, tc.cols)
			if compact != nil {
				if compact.Rows != len(a.BoundaryRows()) {
					t.Fatalf("compact has %d rows, boundary has %d", compact.Rows, len(a.BoundaryRows()))
				}
				scattered.AddRowsAt(a.BoundaryRows(), compact)
			}
			for i, want := range full.Data {
				if scattered.Data[i] != want {
					t.Fatalf("element %d: compact-scatter %v != full %v (bit-for-bit required)",
						i, scattered.Data[i], want)
				}
			}
		})
	}
	// No ghosts at all → nil compact result.
	rng := rand.New(rand.NewSource(5))
	a := randomLocalCSR(rng, 12, 0, 3)
	if got := a.SpMMGhostCompact(randomMatrix(rng, 3, 4)); got != nil {
		t.Fatalf("ghost-free CSR returned a compact matrix with %d rows", got.Rows)
	}
}

// TestLocalCSRGhostIntoNil checks the no-remote-neighbours cases: nil and
// zero-row ghost matrices are no-ops, so owned-only partitions skip the
// collect-side kernel entirely.
func TestLocalCSRGhostIntoNil(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomLocalCSR(rng, 10, 0, 3)
	if len(a.BoundaryRows()) > 0 {
		t.Fatal("CSR with 0 ghost slots reports ghost columns")
	}
	owned := randomMatrix(rng, 10, 4)
	out := tensor.New(10, 4)
	a.SpMMOwnedInto(owned, out)
	before := append([]float32(nil), out.Data...)
	a.SpMMGhostInto(nil, out)
	a.SpMMGhostInto(tensor.New(0, 4), out)
	for i := range before {
		if out.Data[i] != before[i] {
			t.Fatal("empty ghost fold-in modified the output")
		}
	}
}

// BenchmarkSpMMDirect measures the direct all-rows kernel; the
// pre-optimisation version allocated an N-length row-index slice per call.
func BenchmarkSpMMDirect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	edges := make([][2]int32, 0, 40000)
	for i := 0; i < 40000; i++ {
		edges = append(edges, [2]int32{int32(rng.Intn(8000)), int32(rng.Intn(8000))})
	}
	adj := Normalize(FromEdges(8000, edges))
	h := randomMatrix(rng, 8000, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = adj.SpMM(h)
	}
}

// BenchmarkLocalCSRSplit compares the fused local kernel against the
// owned+ghost split it decomposes into.
func BenchmarkLocalCSRSplit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomLocalCSR(rng, 2000, 600, 6)
	owned := randomMatrix(rng, 2000, 32)
	ghost := randomMatrix(rng, 600, 32)
	hcat := tensor.New(2600, 32)
	copy(hcat.Data[:len(owned.Data)], owned.Data)
	copy(hcat.Data[len(owned.Data):], ghost.Data)

	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = a.SpMM(hcat)
		}
	})
	b.Run("split", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := tensor.New(2000, 32)
			a.SpMMOwnedInto(owned, out)
			a.SpMMGhostInto(ghost, out)
		}
	})
}
