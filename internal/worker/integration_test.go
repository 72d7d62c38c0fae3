package worker

import (
	"math"
	"testing"

	"ecgraph/internal/datasets"
	"ecgraph/internal/nn"
)

// miniCluster trains a two-worker GCN cluster and returns the workers and
// their reports of the last epoch.
func miniCluster(t *testing.T, d *datasets.Dataset, opts Options, epochs int) ([]*Worker, []EpochReport) {
	t.Helper()
	r := clusterSpec{kind: nn.KindGCN, opts: opts, workers: 2, epochs: epochs}.run(t, d)
	return r.workers, r.reports
}

func TestWorkerEpochMatchesReference(t *testing.T) {
	d := datasets.MustLoad("cora")
	const epochs = 8
	workers, reports := miniCluster(t, d, Options{}, epochs)

	ref := nn.TrainFullGraph(nn.NewModel(nn.KindGCN, []int{d.NumFeatures(), 8, d.NumClasses}, 1), d, epochs, 0.01)
	var lossSum float64
	for _, r := range reports {
		lossSum += r.LocalLossSum
	}
	loss := lossSum / float64(len(d.TrainIdx()))
	want := ref.LossHistory[epochs-1]
	if math.Abs(loss-want) > 0.02*(1+want) {
		t.Fatalf("worker-level loss %v vs reference %v", loss, want)
	}

	// Logits cover the whole vertex set across workers, disjointly.
	seen := make(map[int32]bool)
	for _, w := range workers {
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
		if r.TrainCount == 0 {
			t.Fatalf("worker reports no training vertices")
		}
	}
}
