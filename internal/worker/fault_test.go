package worker

import (
	"strings"
	"sync/atomic"
	"testing"

	"ecgraph/internal/datasets"
	"ecgraph/internal/graph"
	"ecgraph/internal/nn"
	"ecgraph/internal/obs"
	"ecgraph/internal/ps"
	"ecgraph/internal/transport"
)

// flakyNet wraps a Network and fails remote Calls whenever fail says so.
// Faults are injected at the requester, before the handler runs, matching
// the Chaos wrapper's semantics.
type flakyNet struct {
	transport.Network
	fail func(src, dst int, method string) bool
}

func (f *flakyNet) Call(src, dst int, method string, req []byte) ([]byte, error) {
	if src != dst && f.fail(src, dst, method) {
		return nil, transport.ErrInjected
	}
	return f.Network.Call(src, dst, method, req)
}

// CallMulti must route through the fake's own Call — the embedded
// network's batch path would silently bypass the fault injection.
func (f *flakyNet) CallMulti(src int, calls []transport.Call) []transport.Result {
	return transport.SequentialMulti(f, src, calls)
}

// faultCluster is miniCluster with a fault-injectable network: it wires two
// workers and one PS over InProc behind a flakyNet and returns a step
// function running one epoch on both workers.
func faultCluster(t *testing.T, opts Options, fail func(src, dst int, method string) bool) ([]*Worker, []EpochReport, func(epoch int) []error) {
	t.Helper()
	return clusterOver(t, opts, nil, func(base transport.Network) transport.Network {
		return &flakyNet{Network: base, fail: fail}
	})
}

// clusterOver is faultCluster over whatever the caller wraps around the
// in-process network (3 nodes: two workers and the PS).
func clusterOver(t *testing.T, opts Options, reg *obs.Registry, wrap func(transport.Network) transport.Network) ([]*Worker, []EpochReport, func(epoch int) []error) {
	t.Helper()
	d := datasets.MustLoad("cora")
	const nWorkers = 2
	adj := graph.Normalize(d.Graph)
	assign := make([]int, d.Graph.N)
	for v := range assign {
		assign[v] = v % nWorkers
	}
	topo := BuildTopology(d.Graph, assign, nWorkers)
	net := wrap(transport.NewInProc(nWorkers + 1))

	dims := []int{d.NumFeatures(), 8, d.NumClasses}
	template := nn.NewModel(nn.KindGCN, dims, 1)
	flat := template.FlattenParams()
	ranges := ps.Ranges(len(flat), 1)
	net.Register(nWorkers, ps.NewServer(flat, 0.01, nWorkers).Handler())

	nTrain := len(d.TrainIdx())
	workers := make([]*Worker, nWorkers)
	for i := range workers {
		workers[i] = New(Config{
			ID: i, Net: net, Topo: topo, Adj: adj,
			Feats: d.Features, Labels: d.Labels, TrainMask: d.TrainMask,
			NumTrainGlobal: nTrain,
			Model:          nn.NewModel(nn.KindGCN, dims, 1),
			PS:             ps.NewClient(net, i, []int{nWorkers}, ranges),
			Opts:           opts,
			Metrics:        reg,
		})
		net.Register(i, workers[i].Handler())
	}
	for _, w := range workers {
		if err := w.FetchGhostFeatures(); err != nil {
			t.Fatal(err)
		}
	}

	reports := make([]EpochReport, nWorkers)
	step := func(epoch int) []error {
		errs := make([]error, nWorkers)
		done := make(chan int, nWorkers)
		for i, w := range workers {
			go func(i int, w *Worker) {
				reports[i], errs[i] = w.RunEpoch(epoch)
				done <- i
			}(i, w)
		}
		for range workers {
			<-done
		}
		return errs
	}
	return workers, reports, step
}

// TestWorkerDegradedFetchServesCache fails every ghost-embedding exchange
// for one epoch; within the staleness bound both workers must fall back to
// last-good rows, finish the epoch and report the degraded fetches.
func TestWorkerDegradedFetchServesCache(t *testing.T) {
	var faultEpoch atomic.Bool
	_, reports, step := faultCluster(t, Options{}, func(src, dst int, method string) bool {
		return faultEpoch.Load() && method == MethodGetH
	})
	for e := 0; e < 3; e++ {
		for _, err := range step(e) {
			if err != nil {
				t.Fatalf("clean epoch %d: %v", e, err)
			}
		}
	}
	if reports[0].DegradedFetches != 0 {
		t.Fatalf("clean epochs reported %d degraded fetches", reports[0].DegradedFetches)
	}

	faultEpoch.Store(true)
	for _, err := range step(3) {
		if err != nil {
			t.Fatalf("degraded epoch should survive: %v", err)
		}
	}
	for i, r := range reports {
		if r.DegradedFetches == 0 {
			t.Fatalf("worker %d reported no degraded fetches through a faulted epoch", i)
		}
	}

	// Recovery: the next clean epoch must refresh the caches and report zero.
	faultEpoch.Store(false)
	for _, err := range step(4) {
		if err != nil {
			t.Fatalf("recovery epoch: %v", err)
		}
	}
	for i, r := range reports {
		if r.DegradedFetches != 0 {
			t.Fatalf("worker %d still degraded after recovery: %d", i, r.DegradedFetches)
		}
	}
}

// TestWorkerGradientExchangeDegrades mirrors the embedding test on the
// backward path: failed getG exchanges serve last-good gradient rows.
func TestWorkerGradientExchangeDegrades(t *testing.T) {
	var faultEpoch atomic.Bool
	_, reports, step := faultCluster(t, Options{}, func(src, dst int, method string) bool {
		return faultEpoch.Load() && method == MethodGetG
	})
	for e := 0; e < 2; e++ {
		for _, err := range step(e) {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	faultEpoch.Store(true)
	for _, err := range step(2) {
		if err != nil {
			t.Fatalf("degraded gradient epoch should survive: %v", err)
		}
	}
	for i, r := range reports {
		if r.DegradedFetches == 0 {
			t.Fatalf("worker %d reported no degraded gradient fetches", i)
		}
	}
}

// TestWorkerStalenessBoundFailsHard keeps the fault on: with
// MaxStaleEpochs = 1, the first faulted epoch degrades and the second must
// fail hard instead of training on ever-staler rows.
func TestWorkerStalenessBoundFailsHard(t *testing.T) {
	var faultEpoch atomic.Bool
	_, _, step := faultCluster(t, Options{MaxStaleEpochs: 1}, func(src, dst int, method string) bool {
		return faultEpoch.Load() && method == MethodGetH
	})
	for e := 0; e < 2; e++ {
		for _, err := range step(e) {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	faultEpoch.Store(true)
	for _, err := range step(2) {
		if err != nil {
			t.Fatalf("staleness 1 is within bound 1, epoch should survive: %v", err)
		}
	}
	sawHardFail := false
	for _, err := range step(3) {
		if err != nil {
			if !strings.Contains(err.Error(), "unrecoverable") {
				t.Fatalf("hard failure lacks staleness context: %v", err)
			}
			sawHardFail = true
		}
	}
	if !sawHardFail {
		t.Fatalf("epoch beyond the staleness bound did not fail")
	}
}

// TestWorkerDegradedModeDisabled: a negative bound turns every exhausted
// fetch into an immediate hard failure.
func TestWorkerDegradedModeDisabled(t *testing.T) {
	var faultEpoch atomic.Bool
	_, _, step := faultCluster(t, Options{MaxStaleEpochs: -1}, func(src, dst int, method string) bool {
		return faultEpoch.Load() && method == MethodGetH
	})
	for _, err := range step(0) {
		if err != nil {
			t.Fatal(err)
		}
	}
	faultEpoch.Store(true)
	sawHardFail := false
	for _, err := range step(1) {
		if err != nil {
			sawHardFail = true
		}
	}
	if !sawHardFail {
		t.Fatalf("disabled degraded mode still survived a faulted fetch")
	}
}

// TestWorkerECPredictionFallback runs the EC scheme past a trend boundary so
// requesters hold a baseline, then faults an epoch: the degraded path serves
// the ReqEC-FP linear prediction and training continues.
func TestWorkerECPredictionFallback(t *testing.T) {
	var faultEpoch atomic.Bool
	workers, reports, step := faultCluster(t, Options{
		FPScheme: SchemeEC, FPBits: 2, BPScheme: SchemeEC, BPBits: 2, Ttr: 4,
	}, func(src, dst int, method string) bool {
		return faultEpoch.Load() && method == MethodGetH
	})
	// Epoch 3 is a trend boundary ((3+1)%4 == 0): baselines exist after it.
	for e := 0; e < 5; e++ {
		for _, err := range step(e) {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, w := range workers {
		for _, q := range w.fpReq[1] {
			if q == nil {
				continue
			}
			if _, ok := q.Predict(5); !ok {
				t.Fatalf("requester has no trend baseline after a boundary epoch")
			}
		}
	}
	faultEpoch.Store(true)
	for _, err := range step(5) {
		if err != nil {
			t.Fatalf("EC-predicted epoch should survive: %v", err)
		}
	}
	for i, r := range reports {
		if r.DegradedFetches == 0 {
			t.Fatalf("worker %d reported no degraded fetches on the EC path", i)
		}
	}
	faultEpoch.Store(false)
	for _, err := range step(6) {
		if err != nil {
			t.Fatalf("recovery after EC-predicted epoch: %v", err)
		}
	}
}

// TestWorkerDelayedModeDegrades exercises the delayed-aggregation refresh
// path: a faulted refresh round is skipped within the staleness bound.
func TestWorkerDelayedModeDegrades(t *testing.T) {
	var faultEpoch atomic.Bool
	_, reports, step := faultCluster(t, Options{DelayRounds: 2}, func(src, dst int, method string) bool {
		return faultEpoch.Load() && method == MethodGetH
	})
	for e := 0; e < 2; e++ {
		for _, err := range step(e) {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	faultEpoch.Store(true)
	for _, err := range step(2) {
		if err != nil {
			t.Fatalf("delayed degraded epoch should survive: %v", err)
		}
	}
	degraded := reports[0].DegradedFetches + reports[1].DegradedFetches
	if degraded == 0 {
		t.Fatalf("no degraded refreshes recorded in delayed mode")
	}
}

// replyDropNet loses replies instead of requests: the handler runs — and
// mutates whatever it mutates — and the caller sees a failure.
type replyDropNet struct {
	transport.Network
	drop func(src, dst int, method string, req []byte) bool
}

func (n *replyDropNet) Call(src, dst int, method string, req []byte) ([]byte, error) {
	resp, err := n.Network.Call(src, dst, method, req)
	if err == nil && n.drop(src, dst, method, req) {
		return nil, transport.ErrInjected
	}
	return resp, err
}

func (n *replyDropNet) CallMulti(src int, calls []transport.Call) []transport.Result {
	return transport.SequentialMulti(n, src, calls)
}

// TestLostBoundaryReplyRebaselines loses one trend boundary's reply past all
// of Reliable's retries (worker 0 asking worker 1, round 19 — the second
// boundary, so the requester holds the first one's base and nothing fails
// to decode). The responder moved its base and the requester did not: the
// retries must be repeats of the boundary, the next request must trigger
// exactly one re-baseline, and from then on both ends hold the same base at
// every round. The parent zeroed M_cr on the first retry and then served a
// whole trend group against a base the requester never received.
func TestLostBoundaryReplyRebaselines(t *testing.T) {
	const lost, attempts = 19, 3
	var dropped atomic.Int32
	reg := obs.NewRegistry()
	workers, reports, step := clusterOver(t, Options{
		FPScheme: SchemeEC, FPBits: 2, BPScheme: SchemeEC, BPBits: 2, Ttr: 10,
	}, reg, func(base transport.Network) transport.Network {
		lossy := &replyDropNet{Network: base, drop: func(src, dst int, method string, req []byte) bool {
			r := transport.NewReader(req)
			if method != MethodGetH || src != 0 || dst != 1 || r.Byte() != 1 || r.Uint32() != lost {
				return false
			}
			dropped.Add(1)
			return true
		}}
		return transport.NewStack(lossy, transport.WithNodes(3), transport.WithReliable(transport.ReliableConfig{MaxAttempts: attempts}))
	})
	inSync := func(requester, responder int) bool {
		resp := workers[responder]
		resp.ecMu.Lock()
		defer resp.ecMu.Unlock()
		return workers[requester].fpReq[1][responder].InSyncWith(resp.fpResp[1][requester])
	}
	rebaselines := func() float64 { return workers[0].obs.rebaselines.Value() + workers[1].obs.rebaselines.Value() }
	for e := 0; e < 35; e++ {
		for _, err := range step(e) {
			if err != nil {
				t.Fatalf("epoch %d: %v", e, err)
			}
		}
		wantDegraded, wantRebaselines := 0, 0.0
		if e == lost {
			wantDegraded = 1
		}
		if e > lost {
			wantRebaselines = 1
		}
		if reports[0].DegradedFetches != wantDegraded || reports[1].DegradedFetches != 0 {
			t.Fatalf("epoch %d: degraded fetches %d/%d", e, reports[0].DegradedFetches, reports[1].DegradedFetches)
		}
		if got := rebaselines(); got != wantRebaselines {
			t.Fatalf("epoch %d: %v re-baselines, want %v", e, got, wantRebaselines)
		}
		if !inSync(1, 0) {
			t.Fatalf("epoch %d: the undisturbed pair is out of sync", e)
		}
		if got := inSync(0, 1); got != (e != lost) {
			t.Fatalf("epoch %d: requester 0 and responder 1 in sync = %v", e, got)
		}
	}
	if dropped.Load() != attempts {
		t.Fatalf("dropped %d replies, want every one of %d attempts", dropped.Load(), attempts)
	}
	if workers[1].obs.rebaselines.Value() != 1 {
		t.Fatal("the re-baseline was not the responder's")
	}
}
