package worker

import (
	"slices"
	"testing"

	"ecgraph/internal/datasets"
	"ecgraph/internal/graph"
	"ecgraph/internal/nn"
	"ecgraph/internal/ps"
	"ecgraph/internal/transport"
)

// handoffFixture trains a 3-worker cluster with ResEC-BP for a few epochs so
// embeddings and residual state exist, then returns everything needed to
// rebuild workers under a different assignment.
type handoffFixture struct {
	d      *datasets.Dataset
	adj    *graph.NormAdjacency
	dims   []int
	opts   Options
	net    transport.Network
	old    []*Worker
	assign []int
	epochs int
}

// resecBP4 is the fixture's default exchange: ResEC-BP at 4 bits, raw forward.
var resecBP4 = Options{BPScheme: SchemeEC, BPBits: 4}

func newHandoffFixture(t *testing.T) *handoffFixture {
	return newHandoffFixtureWith(t, resecBP4, 8)
}

// newHandoffFixtureWith is newHandoffFixture with the given exchange options
// and hidden widths.
func newHandoffFixtureWith(t *testing.T, opts Options, hidden ...int) *handoffFixture {
	t.Helper()
	d := datasets.MustLoad("cora")
	const nWorkers = 3
	f := &handoffFixture{
		d: d, adj: graph.Normalize(d.Graph),
		dims:   append(append([]int{d.NumFeatures()}, hidden...), d.NumClasses),
		opts:   opts,
		epochs: 4,
		assign: make([]int, d.Graph.N),
	}
	for v := range f.assign {
		f.assign[v] = v % nWorkers
	}
	topo := BuildTopology(d.Graph, f.assign, nWorkers)
	f.net = transport.NewInProc(nWorkers + 1)

	template := nn.NewModel(nn.KindGCN, f.dims, 1)
	flat := template.FlattenParams()
	f.net.Register(nWorkers, ps.NewServer(flat, 0.01, nWorkers).Handler())

	f.old = make([]*Worker, nWorkers)
	for i := range f.old {
		f.old[i] = f.newWorker(i, topo)
		f.net.Register(i, f.old[i].Handler())
	}
	for _, w := range f.old {
		if err := w.FetchGhostFeatures(); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < f.epochs; e++ {
		errs := make(chan error, nWorkers)
		for _, w := range f.old {
			go func(w *Worker) { _, err := w.RunEpoch(e); errs <- err }(w)
		}
		for range f.old {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
	return f
}

func (f *handoffFixture) newWorker(id int, topo *Topology) *Worker {
	return New(Config{
		ID: id, Net: f.net, Topo: topo, Adj: f.adj,
		Feats: f.d.Features, Labels: f.d.Labels, TrainMask: f.d.TrainMask,
		NumTrainGlobal: len(f.d.TrainIdx()),
		Model:          nn.NewModel(nn.KindGCN, f.dims, 1),
		PS:             ps.NewClient(f.net, id, []int{3}, ps.Ranges(len(nn.NewModel(nn.KindGCN, f.dims, 1).FlattenParams()), 1)),
		Opts:           f.opts,
	})
}

// widthArms runs f once on a fixture whose layer 2 (8 → 7) aggregates first,
// under ResEC-BP alone, and on two where it transforms first, raw and EC-2
// both ways, so getH(1) ships the 7-wide H¹·W² — under ReqEC-FP too.
func widthArms(t *testing.T, f func(t *testing.T, fx *handoffFixture, tf bool)) {
	for _, arm := range []struct {
		name string
		opts Options
		tf   bool
	}{
		{"resec-bp4", resecBP4, false},
		{"raw", Options{}, true},
		{"ec-2", Options{FPScheme: SchemeEC, BPScheme: SchemeEC, FPBits: 2, BPBits: 2, Ttr: 4}, true},
	} {
		t.Run(arm.name, func(t *testing.T) {
			fx := newHandoffFixtureWith(t, arm.opts, 8)
			if got := fx.old[0].transformFirst(2); got != arm.tf {
				t.Fatalf("transformFirst(2) = %v, want %v", got, arm.tf)
			}
			f(t, fx, arm.tf)
		})
	}
}

// drainAssign moves every vertex of worker 2 alternately onto 0 and 1.
func (f *handoffFixture) drainAssign() []int {
	next := append([]int(nil), f.assign...)
	alt := 0
	for v, w := range next {
		if w == 2 {
			next[v] = alt
			alt = 1 - alt
		}
	}
	return next
}

func movedTo(oldAssign, newAssign []int, from, to int) []int32 {
	var out []int32
	for v := range newAssign {
		if oldAssign[v] == from && newAssign[v] == to {
			out = append(out, int32(v))
		}
	}
	return out
}

// TestHandoffRoundTrip: embeddings and residual rows survive an
// export/import bitwise, features land in the new owned slice, and residual
// rows whose (layer, requester) pair still exists under the new view are
// re-seeded at the right position.
func TestHandoffRoundTrip(t *testing.T) {
	f := newHandoffFixture(t)
	src := f.old[2]
	newAssign := f.drainAssign()
	newTopo := BuildTopology(f.d.Graph, newAssign, 3)

	for dst := 0; dst < 2; dst++ {
		moved := movedTo(f.assign, newAssign, 2, dst)
		if len(moved) == 0 {
			t.Fatalf("drain moved nothing to %d", dst)
		}
		payload := src.ExportHandoff(dst, moved)
		nw := f.newWorker(dst, newTopo)
		n, err := nw.ImportHandoff(payload)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(moved) {
			t.Fatalf("imported %d of %d vertices", n, len(moved))
		}

		for _, v := range moved {
			oldPos := int(src.ownedPos[v])
			newPos := int(nw.ownedPos[v])
			for c := 0; c < nw.x.Cols; c++ {
				if nw.x.Row(newPos)[c] != f.d.Features.Row(int(v))[c] {
					t.Fatalf("feature row of %d corrupted in transit", v)
				}
			}
			for l := 1; l <= 2; l++ {
				got := nw.handoffH[l][v]
				want := src.ownH[l].Row(oldPos)
				if len(got) != len(want) {
					t.Fatalf("H^%d row of %d: %d values, want %d", l, v, len(got), len(want))
				}
				for c := range want {
					if got[c] != want[c] {
						t.Fatalf("H^%d row of %d differs at col %d", l, v, c)
					}
				}
			}
		}

		// Residual continuity: every pair that survives the view change
		// carries its δ row bitwise; pairs that dissolved dropped theirs.
		reseeded := 0
		for req := 0; req < 3; req++ {
			// Layer 2 is the top layer here: both lists hold training
			// vertices only, and a row's index is its position among them.
			oldList := src.needsAt(2, req, 2)
			newList := nw.needsAt(2, req, dst)
			for _, v := range moved {
				oi, ni := needsIndex(oldList, v), needsIndex(newList, v)
				if oi < 0 || ni < 0 {
					continue
				}
				want := src.bpResp[2][req].ResidualRow(oi)
				if want == nil {
					continue
				}
				got := nw.bpResp[2][req].ResidualRow(ni)
				if got == nil {
					t.Fatalf("residual (req %d, vertex %d) not reseeded", req, v)
				}
				for c := range want {
					if got[c] != want[c] {
						t.Fatalf("residual (req %d, vertex %d) differs at col %d", req, v, c)
					}
				}
				reseeded++
			}
		}
		if reseeded == 0 {
			t.Fatal("no residual rows crossed the handoff; fixture too small to exercise it")
		}
	}
}

// TestHandoffTopLayerIndex: on a 3-layer model a moved training vertex
// carries its residual rows of both backward exchanges, each landing at the
// vertex's index in that layer's own list (all of Needs at layer 2, training
// vertices only at layer 3), while a moved non-training vertex carries a
// layer-2 row and no layer-3 row at all — that row is zero on both ends by
// derivation and has no residual.
func TestHandoffTopLayerIndex(t *testing.T) {
	f := newHandoffFixtureWith(t, resecBP4, 8, 8)
	const L = 3
	src := f.old[2]
	newAssign := f.drainAssign()
	newTopo := BuildTopology(f.d.Graph, newAssign, 3)
	const dst = 0
	moved := movedTo(f.assign, newAssign, 2, dst)

	// One moved vertex of each kind that requester 1 keeps needing.
	train, other := int32(-1), int32(-1)
	for _, v := range moved {
		if needsIndex(src.topo.Needs[1][2], v) < 0 || needsIndex(newTopo.Needs[1][dst], v) < 0 {
			continue
		}
		if f.d.TrainMask[v] && train < 0 {
			train = v
		} else if !f.d.TrainMask[v] && other < 0 {
			other = v
		}
	}
	if train < 0 || other < 0 {
		t.Fatalf("fixture lacks a moved training (%d) or non-training (%d) vertex on pair (1,2)", train, other)
	}

	payload := src.ExportHandoff(dst, []int32{min(train, other), max(train, other)})
	type key struct {
		layer int
		v     int32
	}
	exported := map[key]bool{}
	r := transport.NewReader(payload)
	r.Uint8s()
	r.Int32()
	r.Int32()
	r.Int32()
	for n := int(r.Int32()); n > 0; n-- {
		r.Int32()
		r.Float32s()
		for l := 1; l <= L; l++ {
			if r.Byte() == 1 {
				r.Float32s()
			}
		}
	}
	for n := int(r.Uint32()); n > 0; n-- {
		l := int(r.Byte())
		req := int(r.Int32())
		v := r.Int32()
		r.Float32s()
		if req == 1 {
			exported[key{l, v}] = true
		}
	}
	for _, k := range []key{{2, train}, {3, train}, {2, other}} {
		if !exported[k] {
			t.Errorf("residual row (layer %d, vertex %d) for requester 1 not exported", k.layer, k.v)
		}
	}
	if exported[key{3, other}] {
		t.Errorf("non-training vertex %d exported a top-layer residual row", other)
	}

	nw := f.newWorker(dst, newTopo)
	if _, err := nw.ImportHandoff(payload); err != nil {
		t.Fatal(err)
	}
	for _, k := range []key{{2, train}, {3, train}, {2, other}} {
		oi := needsIndex(src.needsAt(k.layer, 1, 2), k.v)
		ni := needsIndex(nw.needsAt(k.layer, 1, dst), k.v)
		want, got := src.bpResp[k.layer][1].ResidualRow(oi), nw.bpResp[k.layer][1].ResidualRow(ni)
		if want == nil || got == nil {
			t.Fatalf("layer %d vertex %d: residual row missing (old %v, new %v)", k.layer, k.v, want != nil, got != nil)
		}
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("layer %d vertex %d: residual differs at col %d", k.layer, k.v, c)
			}
		}
		if rows := nw.bpResp[k.layer][1].Residual().Rows; rows != len(nw.needsAt(k.layer, 1, dst)) {
			t.Fatalf("layer %d: seeded residual has %d rows, the pair list %d", k.layer, rows, len(nw.needsAt(k.layer, 1, dst)))
		}
	}
	if top, all := len(nw.needsAt(3, 1, dst)), len(nw.needsAt(2, 1, dst)); top >= all {
		t.Fatalf("top list (%d) not thinner than Needs (%d); fixture exercises nothing", top, all)
	}
	if needsIndex(nw.needsAt(3, 1, dst), other) >= 0 {
		t.Fatalf("non-training vertex %d is in the top-layer list", other)
	}
}

// TestHandoffDoubleMove: a vertex moved A→B and again B→C before B ever ran
// an epoch re-exports the handoff-cached H rows bitwise. The handed-off H¹
// row stands in for a degraded getH(1) row only where getH(1) ships H¹ — not
// where layer 2 transforms first and it ships H¹·W².
func TestHandoffDoubleMove(t *testing.T) {
	widthArms(t, func(t *testing.T, f *handoffFixture, tf bool) {
		newAssign := f.drainAssign()
		newTopo := BuildTopology(f.d.Graph, newAssign, 3)
		moved := movedTo(f.assign, newAssign, 2, 0)
		vv := moved[0]

		mid := f.newWorker(0, newTopo)
		if _, err := mid.ImportHandoff(f.old[2].ExportHandoff(0, moved)); err != nil {
			t.Fatal(err)
		}
		row, ep := mid.lastRow(dirH, 1, vv)
		if tf && (row != nil || ep != -1) {
			t.Fatalf("handoff H^1 row of %d offered as a getH(1) row (%d values, epoch %d)", vv, len(row), ep)
		}
		if !tf && (!slices.Equal(row, mid.handoffH[1][vv]) || ep != 0) {
			t.Fatalf("handoff H^1 row of %d not offered as its getH(1) row (%d values, epoch %d)", vv, len(row), ep)
		}

		// Second transition: vv moves on from 0 to 1 with no epoch in between.
		thirdAssign := append([]int(nil), newAssign...)
		thirdAssign[vv] = 1
		thirdTopo := BuildTopology(f.d.Graph, thirdAssign, 3)
		final := f.newWorker(1, thirdTopo)
		if _, err := final.ImportHandoff(mid.ExportHandoff(1, []int32{vv})); err != nil {
			t.Fatal(err)
		}
		oldPos := int(f.old[2].ownedPos[vv])
		for l := 1; l <= 2; l++ {
			got := final.handoffH[l][vv]
			want := f.old[2].ownH[l].Row(oldPos)
			if len(got) != len(want) {
				t.Fatalf("double-moved H^%d row lost (%d values, want %d)", l, len(got), len(want))
			}
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("double-moved H^%d row differs at col %d", l, c)
				}
			}
		}
	})
}

// TestSeedDegradedCaches: a rebuilt worker's last-good ghost caches are
// populated from the previous view's workers, with the group's staleness
// tag set, so degraded serving works from the first post-transition epoch.
// The getH(1) cache holds the rows getH(1) ships: H¹'s where layer 2
// aggregates first, the 7-wide H¹·W² where it transforms first.
func TestSeedDegradedCaches(t *testing.T) {
	widthArms(t, testSeedDegradedCaches)
}

func testSeedDegradedCaches(t *testing.T, f *handoffFixture, tf bool) {
	newAssign := f.drainAssign()
	newTopo := BuildTopology(f.d.Graph, newAssign, 3)
	prev := map[int]*Worker{0: f.old[0], 1: f.old[1], 2: f.old[2]}

	nw := f.newWorker(0, newTopo)
	nw.SeedDegradedCaches(prev)
	if len(nw.ghostOwner) == 0 {
		t.Fatal("fixture has no ghosts; nothing exercised")
	}
	width := f.dims[1]
	if tf {
		width = f.dims[2]
	}
	for _, j := range nw.ghostOwner {
		lst := newTopo.Needs[0][j]
		h1 := nw.last[dirH][1][j]
		if h1.rows == nil || h1.rows.Cols != width {
			t.Fatalf("H^1 group for owner %d not seeded at the published width %d", j, width)
		}
		if tag := h1.epoch; tag < 0 || tag > f.epochs-1 {
			t.Fatalf("H^1 group for owner %d has staleness tag %d", j, tag)
		}
		for i, u := range lst {
			oldOwner := f.assign[u]
			pub, _ := f.old[oldOwner].hStore.Peek(1)
			want := pub.Row(int(f.old[oldOwner].ownedPos[u]))
			got := h1.rows.Row(i)
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("seeded H^1 row for ghost %d differs at col %d", u, c)
				}
			}
		}
		// G^2 rows were published during the backward pass and must seed
		// too — the top layer's, so training vertices only.
		top := nw.needsAt(2, 0, j)
		g2 := nw.last[dirG][2][j].rows
		if g2 == nil || g2.Rows != len(top) {
			t.Fatalf("G^2 group for owner %d not seeded over its %d training vertices", j, len(top))
		}
		for i, u := range top {
			if !f.d.TrainMask[u] {
				t.Fatalf("top-layer list of owner %d holds non-training vertex %d", j, u)
			}
			// The freshest copy wins and ties go to the lowest old id, so
			// the row is some previous worker's — the owner's exact one or
			// a peer's decoded last-good copy at its own thinned index.
			got, found := g2.Row(i), false
			for _, p := range f.old {
				if row, _ := p.lastRow(dirG, 2, u); row != nil && slices.Equal(row, got) {
					found = true
				}
			}
			if !found {
				t.Fatalf("seeded G^2 row for ghost %d matches no previous worker's", u)
			}
		}
	}
}
