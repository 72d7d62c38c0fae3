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

// layer1Variant is layer1Dataset with features that make the bytes rule
// choose one combination of retained forms on every worker: ÂX as CSR or
// not, its boundary halves as CSR or not.
type layer1Variant struct {
	name             string
	d                *datasets.Dataset
	ahSparse, halves bool
}

// sparseOperands is how many operands a worker of the variant holds as CSR;
// a lone worker has no boundary halves.
func (v layer1Variant) sparseOperands(workers int) int {
	n := 0
	if v.ahSparse {
		n++
	}
	if v.halves && workers > 1 {
		n += 2
	}
	return n
}

// layer1Variants thins the generated features, leaves them alone, and makes
// them fully dense: all three operands CSR, the boundary halves only (ÂX
// itself is over a quarter nonzero), none.
func layer1Variants() []layer1Variant {
	thin, full := layer1Dataset(), layer1Dataset()
	for i := range thin.Features.Data {
		if i%5 != 0 {
			thin.Features.Data[i] = 0
		}
	}
	for i := range full.Features.Data {
		full.Features.Data[i] += 0.5
	}
	return []layer1Variant{
		{"all-sparse", thin, true, true},
		{"halves-sparse", layer1Dataset(), false, true},
		{"all-dense", full, false, false},
	}
}

// denseForm is o as the matrix it was counted from.
func (o operand) denseForm() *tensor.Matrix {
	if o.sparse == nil {
		return o.dense
	}
	m := tensor.New(o.sparse.Rows, o.sparse.Cols)
	for r := 0; r < m.Rows; r++ {
		for p := o.sparse.RowPtr[r]; p < o.sparse.RowPtr[r+1]; p++ {
			m.Set(r, int(o.sparse.Idx[p]), o.sparse.Val[p])
		}
	}
	return m
}

// recomputeLayer1 is the recompute oracle's hook: before every epoch it
// re-fetches the ghost features and rebuilds the aggregate from them with
// every operand dense, so the epoch redoes layer 1's full-width SpMM and
// fold and runs the dense products, the way every epoch did before anything
// was kept.
func recomputeLayer1(w *Worker) error {
	if err := w.FetchGhostFeatures(); err != nil {
		return err
	}
	w.agg1 = w.buildLayer1()
	for _, o := range []*operand{&w.agg1.ah, &w.agg1.ownedB, &w.agg1.ghostB} {
		*o = operand{dense: o.denseForm()}
	}
	return nil
}

// TestLayer1AggregateInvisible is the retained aggregate's determinism
// guarantee: a run that keeps ÂX from the first epoch on, each operand in
// the form the bytes rule chose, and a run that recomputes it dense every
// epoch agree on every loss, final logit and final parameter bit — across
// the retained combinations, models (SAGE adds the WSelf product),
// partitions (Hash: nearly all rows boundary; METIS: mostly interior; one
// worker: no ghosts at all) and exchange schemes.
func TestLayer1AggregateInvisible(t *testing.T) {
	for _, v := range layer1Variants() {
		t.Run(v.name, func(t *testing.T) { testLayer1AggregateInvisible(t, v) })
	}
}

func testLayer1AggregateInvisible(t *testing.T, v layer1Variant) {
	d := v.d
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
				t.Run(fmt.Sprintf("%v-%s-%s", kind, p.name, sc.name), func(t *testing.T) {
					spec := clusterSpec{kind: kind, opts: sc.opts, part: p.part, workers: p.workers, epochs: 5}
					kept := spec.run(t, d)
					for _, w := range kept.workers {
						if got, want := w.agg1.sparseOperands(), v.sparseOperands(p.workers); got != want {
							t.Fatalf("worker %d holds %d operands sparse, want %d", w.id, got, want)
						}
					}
					spec.beforeEpoch = recomputeLayer1
					requireSameRun(t, kept, spec.run(t, d))
				})
			}
		}
	}
}

// TestLayer1AggregateMatchesDirectFold pins the retained layout to the
// arithmetic a layer performs without it: z = (Â_owned X)·W with the compact
// ghost product added into the boundary rows, ah = Â_owned X with the
// compact ghost aggregate added likewise, and ∇W = ahᵀ·g — computed here
// from the dense kernels directly, compared bit for bit with what the
// aggregate yields in each of its retained combinations.
func TestLayer1AggregateMatchesDirectFold(t *testing.T) {
	for _, v := range layer1Variants() {
		for _, part := range []partition.Partitioner{partition.Hash{}, partition.Metis{}} {
			r := clusterSpec{kind: nn.KindGCN, part: part, workers: 3}.build(t, v.d)
			for _, w := range r.workers {
				tag := fmt.Sprintf("%s %s worker %d", v.name, part.Name(), w.id)
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
					t.Fatalf("%s: %d interior + %d boundary rows of %d", tag, len(agg.interior), len(agg.boundary), len(w.owned))
				}
				if got, want := agg.sparseOperands(), v.sparseOperands(3); got != want {
					t.Fatalf("%s: %d operands sparse, want %d", tag, got, want)
				}
				gotZ := agg.interiorTimes(W)
				agg.foldBoundary(gotZ, W)
				requireSameBits(t, tag+" z", wantZ, gotZ)
				requireSameBits(t, tag+" ah", wantAH, agg.ah.denseForm())
				g := tensor.New(len(w.owned), W.Cols)
				for i := range g.Data {
					g.Data[i] = float32(i%11) - 5
				}
				requireSameBits(t, tag+" gradW", wantAH.TMatMul(g), agg.ah.tMatMul(g))
			}
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
// by the first forward pass, which releases the ghost features and keeps
// each operand in one form only (the dense matrix gone once its CSR was
// chosen, ÂX's transposed CSR there exactly when its CSR is); kept by
// ResetSessionState; discarded by a second FetchGhostFeatures and rebuilt,
// to the same bits, by the epoch after it.
func TestLayer1AggregateLifetime(t *testing.T) {
	for _, v := range layer1Variants() {
		t.Run(v.name, func(t *testing.T) { testLayer1AggregateLifetime(t, v.d, v.sparseOperands(3)) })
	}
}

func testLayer1AggregateLifetime(t *testing.T, d *datasets.Dataset, wantSparse int) {
	spec := clusterSpec{kind: nn.KindGCN, part: partition.Hash{}, workers: 3,
		opts: Options{FPScheme: SchemeEC, BPScheme: SchemeEC, FPBits: 2, BPBits: 2}}
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
		if w.agg1 == nil || w.ah[1] != nil {
			t.Fatalf("worker %d: layer-1 aggregate not retained in agg1 alone", w.id)
		}
		a := w.agg1
		for name, o := range map[string]operand{"ah": a.ah, "ownedB": a.ownedB, "ghostB": a.ghostB} {
			if (o.dense == nil) == (o.sparse == nil) {
				t.Fatalf("worker %d: %s held dense %v and sparse %v, want exactly one", w.id, name, o.dense != nil, o.sparse != nil)
			}
		}
		if (a.ah.sparseT != nil) != (a.ah.sparse != nil) || a.ownedB.sparseT != nil || a.ghostB.sparseT != nil || a.sparseOperands() != wantSparse {
			t.Fatalf("worker %d: %d operands sparse (want %d), ah sparse %v with transpose %v", w.id, a.sparseOperands(), wantSparse, a.ah.sparse != nil, a.ah.sparseT != nil)
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
		if w.agg1.sparseOperands() != wantSparse {
			t.Fatalf("worker %d: rebuilt with %d operands sparse, want %d", w.id, w.agg1.sparseOperands(), wantSparse)
		}
		requireSameBits(t, fmt.Sprintf("worker %d rebuilt ah", w.id), first[i].ah.denseForm(), w.agg1.ah.denseForm())
		requireSameBits(t, fmt.Sprintf("worker %d rebuilt ghostB", w.id), first[i].ghostB.denseForm(), w.agg1.ghostB.denseForm())
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
