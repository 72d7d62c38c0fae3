package ecgraph

// One benchmark per table and figure of the paper's evaluation (§V). Each
// wraps the corresponding experiment in quick mode so `go test -bench=.`
// finishes in minutes; cmd/ecgraph-bench -exp <id> runs the full-scale
// version and prints the regenerated table/figure.

import (
	"io"
	"math/rand"
	"testing"

	"ecgraph/internal/compress"
	"ecgraph/internal/core"
	"ecgraph/internal/datasets"
	"ecgraph/internal/experiments"
	"ecgraph/internal/graph"
	"ecgraph/internal/nn"
	"ecgraph/internal/partition"
	"ecgraph/internal/tensor"
	"ecgraph/internal/worker"
)

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(name, experiments.Options{Quick: true, Out: io.Discard}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6ForwardCompression regenerates Fig. 6 (FP convergence under
// compression-only vs ReqEC-FP across bit widths).
func BenchmarkFig6ForwardCompression(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7BackwardCompression regenerates Fig. 7 (BP convergence under
// compression-only vs ResEC-BP).
func BenchmarkFig7BackwardCompression(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8Ablation regenerates Fig. 8 (per-arm convergence speedup and
// accuracy).
func BenchmarkFig8Ablation(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkTable2Costs regenerates Table II (ML-centered vs EC-Graph cost
// analysis, analytic and measured).
func BenchmarkTable2Costs(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable4EpochTime regenerates Table IV (per-epoch training time
// across systems, datasets and depths).
func BenchmarkTable4EpochTime(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkTable5Accuracy regenerates Table V (test accuracy per system).
func BenchmarkTable5Accuracy(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkFig9EndToEnd regenerates Fig. 9 (preprocessing + convergence
// time and EC-Graph speedups).
func BenchmarkFig9EndToEnd(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10LargestGraph regenerates Fig. 10 (EC-Graph vs EC-Graph-S on
// the largest dataset).
func BenchmarkFig10LargestGraph(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11Scalability regenerates Fig. 11 (epoch time vs machines
// under Hash and METIS).
func BenchmarkFig11Scalability(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkThm1ResidualTrace regenerates the Theorem 1 residual-vs-bound
// trace on real training gradients.
func BenchmarkThm1ResidualTrace(b *testing.B) { benchExperiment(b, "thm1") }

// ---- Design-choice ablations beyond the paper's own (DESIGN.md §5) ----

// BenchmarkAblationMatmulOrder measures the §III-A message-aggregating
// optimisation: computing Â(HW) when the input dimension exceeds the
// output dimension versus always aggregating first.
func BenchmarkAblationMatmulOrder(b *testing.B) {
	d := datasets.MustLoad("cora")
	adj := graph.Normalize(d.Graph)
	w := nn.NewModel(nn.KindGCN, []int{d.NumFeatures(), 16}, 1).Layers[0].W
	b.Run("weight-first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			adj.SpMM(d.Features.MatMul(w))
		}
	})
	b.Run("aggregate-first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			adj.SpMM(d.Features).MatMul(w)
		}
	})
}

// BenchmarkAblationBitWidth sweeps the quantiser across the Bit-Tuner's
// menu, reporting the throughput cost of each width.
func BenchmarkAblationBitWidth(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := tensor.New(2048, 64)
	for i := range m.Data {
		m.Data[i] = rng.Float32()
	}
	for _, bits := range compress.ValidBits {
		b.Run(map[int]string{1: "1bit", 2: "2bit", 4: "4bit", 8: "8bit", 16: "16bit"}[bits], func(b *testing.B) {
			b.SetBytes(int64(len(m.Data) * 4))
			for i := 0; i < b.N; i++ {
				compress.Compress(m, bits).Decompress()
			}
		})
	}
}

// BenchmarkAblationPartitioner compares one EC-Graph epoch under Hash vs
// METIS partitioning (traffic difference dominates).
func BenchmarkAblationPartitioner(b *testing.B) {
	for _, p := range []partition.Partitioner{partition.Hash{}, partition.Metis{}} {
		b.Run(p.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.Train(core.Config{
					Dataset: datasets.MustLoad("cora"), Kind: nn.KindGCN, Hidden: []int{16},
					Workers: 3, Servers: 1, Epochs: 2, LR: 0.01, Seed: 1, Partitioner: p,
					Worker: worker.Options{FPScheme: worker.SchemeEC, BPScheme: worker.SchemeEC, FPBits: 2, BPBits: 2, Ttr: 10},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSelectorGranularity compares ReqEC-FP's vertex-wise
// selector (the paper's choice, §IV-B) against the matrix-wise variant.
func BenchmarkAblationSelectorGranularity(b *testing.B) {
	for _, matrixWise := range []bool{false, true} {
		name := "vertex-wise"
		if matrixWise {
			name = "matrix-wise"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Train(core.Config{
					Dataset: datasets.MustLoad("cora"), Kind: nn.KindGCN, Hidden: []int{16},
					Workers: 3, Servers: 1, Epochs: 5, LR: 0.01, Seed: 1,
					Worker: worker.Options{
						FPScheme: worker.SchemeEC, FPBits: 2, Ttr: 4,
						MatrixWiseSelector: matrixWise,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.AvgEpochBytes(), "wire-bytes/epoch")
			}
		})
	}
}

// BenchmarkEpochByScheme times one full training epoch per communication
// scheme on the cora preset — the microbenchmark behind Table IV's EC-Graph
// row.
func BenchmarkEpochByScheme(b *testing.B) {
	schemes := map[string]worker.Options{
		"raw":      {},
		"compress": {FPScheme: worker.SchemeCompress, BPScheme: worker.SchemeCompress, FPBits: 2, BPBits: 2},
		"ec":       {FPScheme: worker.SchemeEC, BPScheme: worker.SchemeEC, FPBits: 2, BPBits: 2, Ttr: 10},
	}
	for _, name := range []string{"raw", "compress", "ec"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.Train(core.Config{
					Dataset: datasets.MustLoad("cora"), Kind: nn.KindGCN, Hidden: []int{16},
					Workers: 3, Servers: 1, Epochs: 3, LR: 0.01, Seed: 1,
					Worker: schemes[name],
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCompressor compares the three gradient compressors at a
// matched ~2-bit byte budget: the paper's bucket quantiser, the
// zero-centred level grid, and Top-K sparsification (ref [32]). The metric
// reported alongside time is the relative L2 reconstruction error.
func BenchmarkAblationCompressor(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := tensor.New(1024, 64)
	for i := range g.Data {
		if i%13 == 0 { // sparse spikes, like output-layer gradients
			g.Data[i] = float32(rng.NormFloat64())
		}
	}
	norm := g.FrobeniusNorm()
	k := compress.KForBudget(len(g.Data), 2)
	arms := []struct {
		name string
		run  func() float64
	}{
		{"bucket-2bit", func() float64 { return compress.Compress(g, 2).Decompress().Sub(g).FrobeniusNorm() }},
		{"zerocentered-2bit", func() float64 {
			return compress.CompressZeroCentered(g, 2).Decompress().Sub(g).FrobeniusNorm()
		}},
		{"topk-samebudget", func() float64 { return compress.TopK(g, k).Dense().Sub(g).FrobeniusNorm() }},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			var err float64
			for i := 0; i < b.N; i++ {
				err = arm.run()
			}
			b.ReportMetric(err/norm, "rel-l2-err")
		})
	}
}

// BenchmarkAblationPerRowDomains compares the paper's whole-matrix
// quantisation domain with per-row domains at 4 bits on embeddings with an
// outlier row.
func BenchmarkAblationPerRowDomains(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	h := tensor.New(1024, 64)
	for i := range h.Data {
		h.Data[i] = rng.Float32()
	}
	for c := 0; c < 64; c++ { // one outlier vertex inflates the global domain
		h.Set(0, c, 50)
	}
	norm := h.FrobeniusNorm()
	b.Run("global-domain", func(b *testing.B) {
		var err float64
		for i := 0; i < b.N; i++ {
			err = compress.Compress(h, 4).Decompress().Sub(h).FrobeniusNorm()
		}
		b.ReportMetric(err/norm, "rel-l2-err")
	})
	b.Run("per-row-domain", func(b *testing.B) {
		var err float64
		for i := 0; i < b.N; i++ {
			err = compress.CompressPerRow(h, 4).Decompress().Sub(h).FrobeniusNorm()
		}
		b.ReportMetric(err/norm, "rel-l2-err")
	})
}

// BenchmarkGATDistributed regenerates the distributed-GAT table (the
// §III-B model-generality experiment): GAT trained by core.Train as
// KindGAT on the same workers and exchange as the GCN row beside it.
func BenchmarkGATDistributed(b *testing.B) { benchExperiment(b, "gat") }
