package worker

import (
	"fmt"
	"math"
	"testing"

	"ecgraph/internal/datasets"
	"ecgraph/internal/nn"
	"ecgraph/internal/partition"
)

// miniCluster trains a two-worker GCN cluster and returns the workers and
// their reports of the last epoch.
func miniCluster(t *testing.T, d *datasets.Dataset, opts Options, epochs int) ([]*Worker, []EpochReport) {
	t.Helper()
	r := clusterSpec{kind: nn.KindGCN, opts: opts, workers: 2, epochs: epochs}.run(t, d)
	return r.workers, r.reports
}

// TestWorkerEpochMatchesReference is the full-graph oracle of the exact
// exchange: on a 3-worker cora cluster with raw rows both ways, every epoch's
// loss is within 1e-6 relative of nn.TrainFullGraph's — GCN and SAGE; hidden
// {8}, {8, 6} and {64, 64}, which between them aggregate first, transform
// first and do both; round-robin and METIS placement. The distributed and
// the single-machine runs sum the same terms in different orders, so they
// agree to float32 rounding (≈1e-7), not bit for bit; a layer that ordered
// or folded its products wrongly misses by orders of magnitude more. The
// logits cover the vertex set across workers, disjointly.
func TestWorkerEpochMatchesReference(t *testing.T) {
	d := datasets.MustLoad("cora")
	const epochs = 7
	for _, kind := range []nn.Kind{nn.KindGCN, nn.KindSAGE} {
		for _, hidden := range [][]int{{8}, {8, 6}, {64, 64}} {
			dims := append(append([]int{d.NumFeatures()}, hidden...), d.NumClasses)
			ref := nn.TrainFullGraph(nn.NewModel(kind, dims, 1), d, epochs, 0.01)
			for _, p := range []struct {
				name string
				part partition.Partitioner
			}{{"rr", nil}, {"metis", partition.Metis{}}} {
				t.Run(fmt.Sprintf("%v-%v-%s", kind, hidden, p.name), func(t *testing.T) {
					r := clusterSpec{kind: kind, hidden: hidden, part: p.part, workers: 3, epochs: epochs}.run(t, d)
					worst := 0.0
					for e, want := range ref.LossHistory {
						var sum float64
						for _, losses := range r.losses {
							sum += losses[e]
						}
						loss := sum / float64(len(d.TrainIdx()))
						rel := math.Abs(loss-want) / want
						if rel > 1e-6 {
							t.Fatalf("epoch %d: loss %v vs full-graph %v (relative %.3g > 1e-6)", e, loss, want, rel)
						}
						worst = max(worst, rel)
					}
					t.Logf("largest relative loss difference %.2g", worst)
					seen := make(map[int32]bool)
					for _, w := range r.workers {
						ids, logits := w.Logits(epochs - 1)
						if logits.Rows != len(ids) || logits.Cols != d.NumClasses {
							t.Fatalf("logits shape %dx%d for %d ids", logits.Rows, logits.Cols, len(ids))
						}
						for _, id := range ids {
							if seen[id] {
								t.Fatalf("vertex %d reported twice", id)
							}
							seen[id] = true
						}
					}
					if len(seen) != d.Graph.N {
						t.Fatalf("logits cover %d of %d vertices", len(seen), d.Graph.N)
					}
				})
			}
		}
	}
}

func TestWorkerECSchemesRun(t *testing.T) {
	d := datasets.MustLoad("cora")
	workers, reports := miniCluster(t, d, Options{
		FPScheme: SchemeEC, FPBits: 2,
		BPScheme: SchemeEC, BPBits: 2,
		Ttr: 4, AdaptiveBits: true,
	}, 10)
	for _, r := range reports {
		if r.FPBits < 1 || r.FPBits > 16 {
			t.Fatalf("tuned bits out of range: %d", r.FPBits)
		}
	}
	// ResEC residual state must exist after training and respect layers.
	for _, w := range workers {
		norms := w.ResidualNorms()
		if len(norms) != 3 { // L+1 entries for a 2-layer model
			t.Fatalf("ResidualNorms length %d", len(norms))
		}
		if norms[2] == 0 {
			t.Fatalf("layer-2 residual is zero after compressed BP exchanges")
		}
	}
}

func TestWorkerDelayedModeRuns(t *testing.T) {
	d := datasets.MustLoad("cora")
	_, reports := miniCluster(t, d, Options{DelayRounds: 3}, 6)
	for _, r := range reports {
		if !(r.LocalLossSum > 0) || math.IsInf(r.LocalLossSum, 0) {
			t.Fatalf("worker %d: local loss sum %v, want finite and positive", r.Worker, r.LocalLossSum)
		}
	}
}

// TestCompensatedExchangeMatchesReference is the full-graph oracle of the
// compensated exchange: the grid of TestWorkerEpochMatchesReference with
// EC-16 both ways (ReqEC-FP with Ttr 4, ResEC-BP) holds every epoch's loss
// within 5e-4 relative of nn.TrainFullGraph's over 12 epochs. At 16 bits
// the quantisation error is far below that bound; what it catches is a
// layer that ships or folds the wrong rows, or a getG sent narrower than
// its configured width.
func TestCompensatedExchangeMatchesReference(t *testing.T) {
	d := datasets.MustLoad("cora")
	const epochs = 12
	opts := Options{FPScheme: SchemeEC, FPBits: 16, BPScheme: SchemeEC, BPBits: 16, Ttr: 4}
	for _, kind := range []nn.Kind{nn.KindGCN, nn.KindSAGE} {
		for _, hidden := range [][]int{{8}, {8, 6}, {64, 64}} {
			dims := append(append([]int{d.NumFeatures()}, hidden...), d.NumClasses)
			ref := nn.TrainFullGraph(nn.NewModel(kind, dims, 1), d, epochs, 0.01)
			for _, p := range []struct {
				name string
				part partition.Partitioner
			}{{"rr", nil}, {"metis", partition.Metis{}}} {
				t.Run(fmt.Sprintf("%v-%v-%s", kind, hidden, p.name), func(t *testing.T) {
					r := clusterSpec{kind: kind, hidden: hidden, opts: opts, part: p.part, workers: 3, epochs: epochs}.run(t, d)
					worst := 0.0
					for e, want := range ref.LossHistory {
						var sum float64
						for _, losses := range r.losses {
							sum += losses[e]
						}
						rel := math.Abs(sum/float64(len(d.TrainIdx()))-want) / want
						if rel > 5e-4 {
							t.Fatalf("epoch %d: relative loss difference %.3g > 5e-4", e, rel)
						}
						worst = max(worst, rel)
					}
					t.Logf("largest relative loss difference %.2g", worst)
				})
			}
		}
	}
}
