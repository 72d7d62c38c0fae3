package worker

import (
	"fmt"
	"math"
	"testing"

	"ecgraph/internal/datasets"
	"ecgraph/internal/nn"
	"ecgraph/internal/partition"
	"ecgraph/internal/tensor"
)

// layer1Dataset is small enough to run the whole option cross in seconds.
func layer1Dataset() *datasets.Dataset {
	return datasets.Generate(datasets.Config{
		Name: "layer1", N: 360, AvgDegree: 6, NumFeatures: 24, NumClasses: 4,
		Homophily: 0.8, TrainFrac: 0.3, ValFrac: 0.2, Seed: 5,
	})
}

// recomputeLayer1 is the recompute oracle's hook: before every epoch it
// re-fetches the ghost features, which discards the retained aggregate, so
// the epoch redoes layer 1's full-width SpMM and fold the way every epoch
// did before the aggregate was kept.
func recomputeLayer1(w *Worker) error { return w.FetchGhostFeatures() }

// TestLayer1AggregateInvisible is the retained aggregate's determinism
// guarantee: a run that keeps ÂX from the first epoch on and a run that
// recomputes it every epoch agree on every loss, final logit and final
// parameter bit — across models (SAGE adds the WSelf product), partitions
// (Hash: nearly all rows boundary; METIS: mostly interior; one worker: no
// ghosts at all), exchange schemes, and both epoch and both fold paths.
func TestLayer1AggregateInvisible(t *testing.T) {
	d := layer1Dataset()
	parts := []struct {
		name    string
		part    partition.Partitioner
		workers int
	}{
		{"hash", partition.Hash{}, 3},
		{"metis", partition.Metis{}, 3},
		{"single", nil, 1},
	}
	schemes := []struct {
		name string
		opts Options
	}{
		{"raw", Options{}},
		{"ec", Options{FPScheme: SchemeEC, BPScheme: SchemeEC, FPBits: 2, BPBits: 2, Ttr: 3}},
	}
	for _, kind := range []nn.Kind{nn.KindGCN, nn.KindSAGE} {
		for _, p := range parts {
			for _, sc := range schemes {
				for _, overlap := range []bool{false, true} {
					for _, packed := range []bool{false, true} {
						name := fmt.Sprintf("%v-%s-%s-overlap=%v-packed=%v", kind, p.name, sc.name, overlap, packed)
						t.Run(name, func(t *testing.T) {
							spec := clusterSpec{kind: kind, opts: sc.opts, part: p.part, workers: p.workers, epochs: 5}
							spec.opts.Overlap, spec.opts.PackedSpMM = overlap, packed
							kept := spec.run(t, d)
							spec.beforeEpoch = recomputeLayer1
							requireSameRun(t, kept, spec.run(t, d))
						})
					}
				}
			}
		}
	}
}

// TestLayer1AggregateMatchesDirectFold pins the retained layout to the
// arithmetic a layer performs without it: z = (Â_owned X)·W with the compact
// ghost product added into the boundary rows, and ah = Â_owned X with the
// compact ghost aggregate added likewise — computed here from the kernels
// directly, compared bit for bit with what the aggregate yields.
func TestLayer1AggregateMatchesDirectFold(t *testing.T) {
	d := layer1Dataset()
	for _, part := range []partition.Partitioner{partition.Hash{}, partition.Metis{}} {
		r := clusterSpec{kind: nn.KindGCN, part: part, workers: 3}.build(t, d)
		for _, w := range r.workers {
			W := w.cfg.Model.Layers[0].W
			ghost := w.ghostX
			wantAH := tensor.New(len(w.owned), w.x.Cols)
			w.adj.SpMMOwnedInto(w.x, wantAH)
			wantZ := wantAH.MatMul(W)
			if g := w.adj.SpMMGhostCompact(ghost); g != nil {
				wantZ.AddRowsAt(w.adj.BoundaryRows(), g.MatMul(W))
				wantAH.AddRowsAt(w.adj.BoundaryRows(), g)
			}

			agg := w.buildLayer1()
			// Hash leaves (nearly) no interior row; only METIS must have both.
			if n := len(agg.interior) + len(agg.boundary); n != len(w.owned) || len(agg.boundary) == 0 ||
				(part.Name() == "metis" && len(agg.interior) == 0) {
				t.Fatalf("%s worker %d: %d interior + %d boundary rows of %d", part.Name(), w.id, len(agg.interior), len(agg.boundary), len(w.owned))
			}
			gotZ := agg.interiorTimes(W)
			agg.foldBoundary(gotZ, W)
			requireSameBits(t, fmt.Sprintf("%s worker %d z", part.Name(), w.id), wantZ, gotZ)
			requireSameBits(t, fmt.Sprintf("%s worker %d ah", part.Name(), w.id), wantAH, agg.ah)
		}
	}
}

func requireSameBits(t *testing.T, what string, want, got *tensor.Matrix) {
	t.Helper()
	if !want.SameShape(got) {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestLayer1AggregateLifetime walks the aggregate's lifetime rules: built
// by the first forward pass, which releases the ghost features; kept by
// ResetSessionState; discarded by a second FetchGhostFeatures and rebuilt,
// to the same bits, by the epoch after it.
func TestLayer1AggregateLifetime(t *testing.T) {
	d := layer1Dataset()
	spec := clusterSpec{kind: nn.KindGCN, part: partition.Hash{}, workers: 3,
		opts: Options{FPScheme: SchemeEC, BPScheme: SchemeEC, FPBits: 2, BPBits: 2, Overlap: true, PackedSpMM: true}}
	r := spec.build(t, d)
	for _, w := range r.workers {
		if w.ghostX == nil || w.agg1 != nil {
			t.Fatalf("worker %d before the first epoch: ghostX %v, agg1 %v", w.id, w.ghostX != nil, w.agg1 != nil)
		}
	}
	r.runEpochs(t, 0, 2)
	first := make([]*layer1Agg, len(r.workers))
	for i, w := range r.workers {
		if w.ghostX != nil {
			t.Fatalf("worker %d still holds ghost features after an epoch", w.id)
		}
		if w.agg1 == nil || w.ah[1] != w.agg1.ah {
			t.Fatalf("worker %d: layer-1 aggregate not retained", w.id)
		}
		first[i] = w.agg1
		w.ResetSessionState()
		if w.agg1 != first[i] {
			t.Fatalf("worker %d: ResetSessionState dropped the aggregate", w.id)
		}
	}
	for _, w := range r.workers {
		if err := w.FetchGhostFeatures(); err != nil {
			t.Fatal(err)
		}
		if w.agg1 != nil || w.ghostX == nil {
			t.Fatalf("worker %d: FetchGhostFeatures did not reset the aggregate", w.id)
		}
	}
	r.runEpochs(t, 2, 3)
	for i, w := range r.workers {
		if w.agg1 == nil || w.agg1 == first[i] || w.ghostX != nil {
			t.Fatalf("worker %d: aggregate not rebuilt after the second fetch", w.id)
		}
		requireSameBits(t, fmt.Sprintf("worker %d rebuilt ah", w.id), first[i].ah, w.agg1.ah)
		requireSameBits(t, fmt.Sprintf("worker %d rebuilt ghostB", w.id), first[i].ghostB, w.agg1.ghostB)
	}
}

// TestLayer1SpanNames checks the precomputed span names against the format
// the budget tooling parses ("fp2 collect": pass, layer, phase).
func TestLayer1SpanNames(t *testing.T) {
	got := newLayerSpans("fp", 2)
	want := []layerSpans{{}, {"fp1 owned", "fp1 collect", "fp1 fold"}, {"fp2 owned", "fp2 collect", "fp2 fold"}}
	if len(got) != len(want) {
		t.Fatalf("%d entries, want %d", len(got), len(want))
	}
	for l := range want {
		if got[l] != want[l] {
			t.Fatalf("layer %d: %+v, want %+v", l, got[l], want[l])
		}
	}
}
