package graph

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ecgraph/internal/compress"
	"ecgraph/internal/tensor"
)

// qspmmScenario is the acceptance-benchmark shape: a boundary-heavy local
// operator whose ghost matrix (nGhost×cols floats ≈ 2 MiB) overflows L2, so
// the decode pass streams cold memory while the tiled packed kernel reuses
// one hot strip. Ghost reuse (nnzGhost/nGhost ≈ 2.8) clears the tile
// scheduler's threshold, matching the training workloads the kernel serves.
const (
	qspmmOwned = 4096
	qspmmGhost = 8192
	qspmmDeg   = 8
	qspmmCols  = 64
)

// qspmmPayload is one quantised ghost payload plus everything both arms
// need: the words kept outside any pool, and a prototype Quantized whose
// view can be rebuilt per simulated receive (Block moves ownership, so each
// receive gets a fresh conversion, charging the packed arm its true cost).
type qspmmPayload struct {
	proto compress.Quantized
	words []uint64
}

func newQspmmPayload(rng *rand.Rand, bits int) *qspmmPayload {
	m := randomMatrix(rng, qspmmGhost, qspmmCols)
	q := compress.Compress(m, bits)
	p := &qspmmPayload{proto: *q, words: q.Packed}
	p.proto.Packed = nil
	return p
}

// decodeArm is the old receive path: materialise the float ghost matrix,
// then run the dense compact kernel.
func (p *qspmmPayload) decodeArm(a *LocalCSR) *tensor.Matrix {
	q := p.proto
	q.Packed = p.words
	return a.SpMMGhostCompact(q.Decompress())
}

// packedArm is the new receive path: convert to the blocked view (LUT build
// only, no decode) and aggregate straight off the packed words.
func (p *qspmmPayload) packedArm(a *LocalCSR, op *GhostOperand, ar *tensor.Arena) *tensor.Matrix {
	q := p.proto
	q.Packed = p.words
	op.SetRowsPacked(0, q.Block())
	ar.Reset()
	return a.SpMMGhostCompactPacked(op, ar)
}

// TestQuantizedSpMMSpeedup is the PR's acceptance benchmark: ghost
// aggregation straight off packed blocks vs decode-then-SpMM, at wire
// widths B ∈ {2, 4, 8}. The gated speedup is the worst of the B ≤ 4 arms
// (the EC training operating points) and must reach 1.25x; measured numbers
// land in BENCH_qspmm.json at the repo root for the CI bench gate.
func TestQuantizedSpMMSpeedup(t *testing.T) {
	// A wall-clock gate that rewrites a tracked file: bench lane only, so
	// plain `go test ./...` asserts no timing and leaves the tree clean.
	if os.Getenv("ECGRAPH_BENCH") != "1" {
		t.Skip("wall-clock gate: set ECGRAPH_BENCH=1 to run")
	}
	if raceEnabled {
		t.Skip("timing benchmark skipped under -race: instrumented compute distorts the arms")
	}
	const (
		minSpeedup = 1.25
		reps       = 3
		rounds     = 8
	)
	rng := rand.New(rand.NewSource(17))
	a := randomLocalCSR(rng, qspmmOwned, qspmmGhost, qspmmDeg)
	bitArms := []int{2, 4, 8}
	payloads := make([]*qspmmPayload, len(bitArms))
	for i, b := range bitArms {
		payloads[i] = newQspmmPayload(rng, b)
	}
	op := NewGhostHybrid(qspmmGhost, qspmmCols)
	ar := tensor.NewArena(0)

	// Verify the arms agree bit-for-bit before timing them.
	for i, p := range payloads {
		want := p.decodeArm(a)
		got := p.packedArm(a, op, ar)
		for j, w := range want.Data {
			if got.Data[j] != w {
				t.Fatalf("bits=%d: packed[%d]=%v want %v", bitArms[i], j, got.Data[j], w)
			}
		}
	}

	base := make([]time.Duration, len(bitArms))
	opt := make([]time.Duration, len(bitArms))
	for i := range base {
		base[i], opt[i] = time.Duration(1<<62), time.Duration(1<<62)
	}
	measure := func(f func()) time.Duration {
		start := time.Now()
		for r := 0; r < reps; r++ {
			f()
		}
		return time.Since(start) / reps
	}
	gated := func() float64 {
		s := float64(base[0]) / float64(opt[0])
		if s4 := float64(base[1]) / float64(opt[1]); s4 < s {
			s = s4
		}
		return s
	}
	for round := 0; round < rounds; round++ {
		// Interleave the arms so drift hits both; keep the min over rounds.
		for i, p := range payloads {
			if d := measure(func() { p.decodeArm(a) }); d < base[i] {
				base[i] = d
			}
			if d := measure(func() { p.packedArm(a, op, ar) }); d < opt[i] {
				opt[i] = d
			}
		}
		if round >= 2 && gated() >= minSpeedup*1.1 {
			break // the minimum is sharp enough; spare the CI minutes
		}
	}

	// Report the arm that produced the gated (worst B ≤ 4) speedup so the
	// JSON's speedup equals baseline_ms/optimized_ms.
	gi := 0
	if float64(base[1])/float64(opt[1]) < float64(base[0])/float64(opt[0]) {
		gi = 1
	}
	calibration := map[string]any{
		"owned": qspmmOwned, "ghost": qspmmGhost, "cols": qspmmCols,
		"nnz_ghost": a.nnzGhost, "reps": reps, "rounds": rounds,
	}
	for i, b := range bitArms {
		calibration[fmt.Sprintf("bits%d", b)] = map[string]any{
			"decode_ms": float64(base[i]) / float64(time.Millisecond),
			"packed_ms": float64(opt[i]) / float64(time.Millisecond),
			"speedup":   float64(base[i]) / float64(opt[i]),
		}
	}
	sp := writeQspmmJSON(t, base[gi], opt[gi], minSpeedup, calibration)
	if sp < minSpeedup {
		t.Fatalf("packed ghost aggregation speedup %.2fx below the %.2fx gate (decode %v, packed %v)",
			sp, minSpeedup, base[gi], opt[gi])
	}
	t.Logf("packed vs decode: gated %.2fx (B=%d); all arms in BENCH_qspmm.json", sp, bitArms[gi])
}

// writeQspmmJSON records the benchmark at the repo root in the shared
// BENCH_*.json schema (see internal/worker's writeBenchJSON) so the CI
// bench gate reads gate.ok uniformly. latency_ms is 0: this benchmark is
// pure compute, no injected RTT.
func writeQspmmJSON(tb testing.TB, baseline, optimized time.Duration,
	minSpeedup float64, calibration map[string]any) float64 {
	tb.Helper()
	speedup := float64(baseline) / float64(optimized)
	out := map[string]any{
		"benchmark":    "quantized_spmm_packed_vs_decode",
		"workers":      1,
		"epochs":       1,
		"latency_ms":   0.0,
		"baseline_ms":  float64(baseline) / float64(time.Millisecond),
		"optimized_ms": float64(optimized) / float64(time.Millisecond),
		"speedup":      speedup,
		"gate": map[string]any{
			"min_speedup": minSpeedup,
			"ok":          speedup >= minSpeedup,
		},
		"calibration": calibration,
	}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("..", "..", "BENCH_qspmm.json"), append(blob, '\n'), 0o644); err != nil {
		tb.Fatal(err)
	}
	return speedup
}

// benchFixture builds the scenario once per bit width for the -benchmem
// benchmarks below.
func benchFixture(bits int) (*LocalCSR, *qspmmPayload, *GhostOperand, *tensor.Arena) {
	rng := rand.New(rand.NewSource(23))
	a := randomLocalCSR(rng, qspmmOwned, qspmmGhost, qspmmDeg)
	p := newQspmmPayload(rng, bits)
	op := NewGhostHybrid(qspmmGhost, qspmmCols)
	ar := tensor.NewArena(0)
	p.packedArm(a, op, ar) // warm the arena
	return a, p, op, ar
}

// BenchmarkSpMMGhostDecode measures the old receive path per payload:
// Decompress into a fresh matrix, then the dense compact kernel.
func BenchmarkSpMMGhostDecode(b *testing.B) {
	for _, bits := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("b%d", bits), func(b *testing.B) {
			a, p, _, _ := benchFixture(bits)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.decodeArm(a)
			}
		})
	}
}

// BenchmarkSpMMGhostPacked measures the new receive path per payload:
// Block conversion (LUT only) plus the packed compact kernel with arena
// output — the full per-exchange cost, not just the kernel.
func BenchmarkSpMMGhostPacked(b *testing.B) {
	for _, bits := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("b%d", bits), func(b *testing.B) {
			a, p, op, ar := benchFixture(bits)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.packedArm(a, op, ar)
			}
		})
	}
}

// BenchmarkSpMMGhostPackedSteady is the allocation-gated benchmark: the
// operand and arena are steady state (built once per receive, reused every
// layer), the shape sits on the inline kernel path, and CI asserts this
// benchmark reports exactly 0 allocs/op.
func BenchmarkSpMMGhostPackedSteady(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	a, op, ar := steadyFixture(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar.Reset()
		a.SpMMGhostCompactPacked(op, ar)
	}
}
