package worker

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"ecgraph/internal/datasets"
	"ecgraph/internal/graph"
	"ecgraph/internal/nn"
	"ecgraph/internal/partition"
	"ecgraph/internal/ps"
	"ecgraph/internal/tensor"
	"ecgraph/internal/transport"
)

// clusterSpec describes one in-proc training run of the determinism tests:
// workers and one PS over a fresh network, every worker's epoch in parallel
// (as the engine does).
type clusterSpec struct {
	kind    nn.Kind
	hidden  []int // hidden-layer widths; nil: one layer of 8
	opts    Options
	part    partition.Partitioner // nil: round-robin v % workers
	workers int
	epochs  int
	// beforeEpoch, when set, runs on every worker ahead of every epoch,
	// between the previous epoch's barrier and the next epoch's start.
	beforeEpoch func(w *Worker) error
}

// clusterRun is a clusterSpec's cluster and what it has produced so far:
// each worker's per-epoch loss sums and its report of the latest epoch, and
// after run the final logits and the parameters after the last push.
type clusterRun struct {
	spec    clusterSpec
	workers []*Worker
	losses  [][]float64
	reports []EpochReport
	logits  []*tensor.Matrix
	params  []float32
	// degraded sums every worker's DegradedFetches over every epoch run.
	degraded int
}

// build wires the cluster and fetches ghost features; no epoch has run.
func (s clusterSpec) build(t *testing.T, d *datasets.Dataset) *clusterRun {
	t.Helper()
	adj := graph.Normalize(d.Graph)
	var assign []int
	if s.part != nil {
		assign = s.part.Partition(d.Graph, s.workers)
	} else {
		assign = make([]int, d.Graph.N)
		for v := range assign {
			assign[v] = v % s.workers
		}
	}
	topo := BuildTopology(d.Graph, assign, s.workers)
	net := transport.NewInProc(s.workers + 1)

	hidden := s.hidden
	if hidden == nil {
		hidden = []int{8}
	}
	dims := append(append([]int{d.NumFeatures()}, hidden...), d.NumClasses)
	template := nn.NewModel(s.kind, dims, 1)
	flat := template.FlattenParams()
	ranges := ps.Ranges(len(flat), 1)
	net.Register(s.workers, ps.NewServer(flat, 0.01, s.workers).Handler())

	nTrain := len(d.TrainIdx())
	r := &clusterRun{
		spec:    s,
		workers: make([]*Worker, s.workers),
		losses:  make([][]float64, s.workers),
		reports: make([]EpochReport, s.workers),
	}
	for i := range r.workers {
		r.workers[i] = New(Config{
			ID: i, Net: net, Topo: topo, Adj: adj,
			Feats: d.Features, Labels: d.Labels, TrainMask: d.TrainMask,
			NumTrainGlobal: nTrain,
			Model:          nn.NewModel(s.kind, dims, 1),
			PS:             ps.NewClient(net, i, []int{s.workers}, ranges),
			Opts:           s.opts,
		})
		net.Register(i, r.workers[i].Handler())
	}
	for _, w := range r.workers {
		if err := w.FetchGhostFeatures(); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// runEpochs runs epochs [from, to) with every worker in parallel.
func (r *clusterRun) runEpochs(t *testing.T, from, to int) {
	t.Helper()
	for e := from; e < to; e++ {
		if r.spec.beforeEpoch != nil {
			for _, w := range r.workers {
				if err := r.spec.beforeEpoch(w); err != nil {
					t.Fatal(err)
				}
			}
		}
		errs := make(chan error, len(r.workers))
		for i, w := range r.workers {
			go func(i int, w *Worker) {
				var err error
				r.reports[i], err = w.RunEpoch(e)
				r.losses[i] = append(r.losses[i], r.reports[i].LocalLossSum)
				errs <- err
			}(i, w)
		}
		for range r.workers {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		for _, rep := range r.reports {
			r.degraded += rep.DegradedFetches
		}
	}
}

// run builds the cluster, trains s.epochs epochs and collects the results.
func (s clusterSpec) run(t *testing.T, d *datasets.Dataset) *clusterRun {
	t.Helper()
	r := s.build(t, d)
	r.runEpochs(t, 0, s.epochs)
	r.logits = make([]*tensor.Matrix, s.workers)
	for i, w := range r.workers {
		_, r.logits[i] = w.Logits(s.epochs - 1)
	}
	params, err := r.workers[0].cfg.PS.Pull(s.epochs)
	if err != nil {
		t.Fatal(err)
	}
	r.params = params
	return r
}

// requireSameRun fails unless b reproduced a bit for bit: every per-epoch
// loss, every final logit and every final parameter.
func requireSameRun(t *testing.T, a, b *clusterRun) {
	t.Helper()
	for i := range a.losses {
		for e := range a.losses[i] {
			if a.losses[i][e] != b.losses[i][e] {
				t.Fatalf("worker %d epoch %d: loss %v != %v", i, e, b.losses[i][e], a.losses[i][e])
			}
		}
	}
	for i := range a.logits {
		requireSameBits(t, fmt.Sprintf("worker %d logits", i), a.logits[i], b.logits[i])
	}
	for k := range a.params {
		if math.Float32bits(a.params[k]) != math.Float32bits(b.params[k]) {
			t.Fatalf("final param %d: %v != %v", k, b.params[k], a.params[k])
		}
	}
}

// gatedNet blocks every remote call of a chosen method until the gate
// opens, simulating a straggling responder while leaving the rest of the
// cluster instantaneous.
type gatedNet struct {
	transport.Network
	method string
	gate   chan struct{}
}

func (n *gatedNet) Call(src, dst int, method string, req []byte) ([]byte, error) {
	if src != dst && method == n.method {
		<-n.gate
	}
	return n.Network.Call(src, dst, method, req)
}

func (n *gatedNet) CallMulti(src int, calls []transport.Call) []transport.Result {
	return transport.SequentialMulti(n, src, calls)
}

// TestIssueDoesNotBlockOnStraggler pins the issue/collect contract: a
// straggling peer must delay only the getH collect, never the issue or the
// owned-partial compute between them.
func TestIssueDoesNotBlockOnStraggler(t *testing.T) {
	g, topo := pathTopo()
	adj := graph.Normalize(g)
	feats := tensor.New(6, 3)
	for i := range feats.Data {
		feats.Data[i] = float32(i) * 0.125
	}
	gate := make(chan struct{})
	net := &gatedNet{Network: transport.NewInProc(2), method: MethodGetH, gate: gate}

	workers := make([]*Worker, 2)
	for i := range workers {
		workers[i] = New(Config{
			ID: i, Net: net, Topo: topo, Adj: adj,
			Feats:  feats,
			Labels: make([]int, 6), TrainMask: make([]bool, 6),
			Model: nn.NewModel(nn.KindGCN, []int{3, 4, 2}, 1),
		})
		net.Register(i, workers[i].Handler())
	}
	w0, w1 := workers[0], workers[1]

	// The peer has already published its layer-1 rows, so only the gate
	// stands between issue and response. Layer 2 shrinks 4 → 2 over a raw
	// exchange, so what getH(1) ships is the 2-wide H¹·W².
	if !w1.transformFirst(2) {
		t.Fatal("layer 2 of 3→4→2 should transform first")
	}
	peerH := tensor.New(3, w1.width(dirH, 1))
	for i := range peerH.Data {
		peerH.Data[i] = float32(i + 1)
	}
	w1.hStore.Put(1, 0, peerH)

	// Issue must return with the gate still closed — the batch runs on a
	// background goroutine.
	pend := w0.issue(dirH, 1, 0)

	// The overlap window: owned-partial compute proceeds while the wire is
	// (artificially forever) busy.
	owned := tensor.New(3, 4)
	for i := range owned.Data {
		owned.Data[i] = 0.5
	}
	partial := tensor.New(3, 4)
	w0.adj.SpMMOwnedInto(owned, partial)

	// Collect, by contract, blocks until the straggler responds.
	var wg sync.WaitGroup
	wg.Add(1)
	var ghostOp *graph.GhostOperand
	var collectErr error
	collected := make(chan struct{})
	go func() {
		defer wg.Done()
		ghostOp, collectErr = w0.collect(dirH, pend, 1, 0)
		close(collected)
	}()
	select {
	case <-collected:
		t.Fatal("collect returned while the straggler gate was still closed")
	case <-time.After(30 * time.Millisecond):
	}
	close(gate)
	wg.Wait()
	if collectErr != nil {
		t.Fatal(collectErr)
	}
	// Worker 0 ghosts are {1,3,5} = w1's owned rows {0,1,2}; raw scheme
	// ships them unmodified.
	ghost := ghostOp.Dense()
	if ghost.Rows != 3 || ghost.Cols != 2 {
		t.Fatalf("ghost shape %dx%d, want 3x2", ghost.Rows, ghost.Cols)
	}
	for i := range ghost.Data {
		if ghost.Data[i] != peerH.Data[i] {
			t.Fatalf("ghost element %d = %v, want %v", i, ghost.Data[i], peerH.Data[i])
		}
	}
}
