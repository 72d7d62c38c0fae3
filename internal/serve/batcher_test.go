package serve

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ecgraph/internal/datasets"
	"ecgraph/internal/nn"
	"ecgraph/internal/obs"
	"ecgraph/internal/transport"
)

// The dispatch tests hold shard rounds at a failNet gate instead of
// sleeping: what they assert is decided by channel order alone. The only
// clock is stuck, the bound on how long a broken dispatcher may take to
// show it.
const stuck = 30 * time.Second

// newGatedService builds a service whose sv.batch calls wait at a gate.
// The gate opens at cleanup, before the service closes.
func newGatedService(t *testing.T, d *datasets.Dataset, cfg Config) (*Service, *failNet) {
	t.Helper()
	fn := &failNet{
		Network: transport.NewStack(transport.NewInProc(cfg.Shards+1), transport.WithConcurrency(2)),
		gate:    make(chan struct{}),
		// Reporting must never hold a shard call up: the buffer is far
		// larger than the batches any test dispatches.
		entered: make(chan []int32, 1024),
	}
	cfg.Net = fn
	svc := newTestService(t, d, cfg)
	t.Cleanup(fn.open)
	return svc, fn
}

// awaitBatch returns the vertex ids of the next sv.batch call to reach the
// gate.
func awaitBatch(t *testing.T, fn *failNet) []int32 {
	t.Helper()
	select {
	case ids := <-fn.entered:
		return ids
	case <-time.After(stuck):
		t.Fatal("no batch reached the shard")
		return nil
	}
}

// requireNoBatch fails if a batch has reached the gate unclaimed.
func requireNoBatch(t *testing.T, fn *failNet) {
	t.Helper()
	select {
	case ids := <-fn.entered:
		t.Fatalf("batch %v dispatched while every round slot was busy", ids)
	default:
	}
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(stuck)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func isClosed(s *Service) bool {
	s.admissionMu.RLock()
	defer s.admissionMu.RUnlock()
	return s.closed
}

// pendingPredict is one Predict running in its own goroutine.
type pendingPredict struct {
	ids  []int
	res  []Result
	err  error
	done chan struct{}
}

func predictAsync(svc *Service, ids []int) *pendingPredict {
	p := &pendingPredict{ids: ids, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		p.res, p.err = svc.Predict(ids)
	}()
	return p
}

// requireServed waits for the request and checks that every vertex was
// answered, in order.
func (p *pendingPredict) requireServed(t *testing.T, label string) {
	t.Helper()
	select {
	case <-p.done:
	case <-time.After(stuck):
		t.Fatalf("%s: never answered", label)
	}
	if p.err != nil {
		t.Fatalf("%s: %v", label, p.err)
	}
	if len(p.res) != len(p.ids) {
		t.Fatalf("%s: %d results for %d vertices", label, len(p.res), len(p.ids))
	}
	for i, r := range p.res {
		if r.Vertex != p.ids[i] || !r.OK || len(r.Logits) == 0 {
			t.Fatalf("%s: result %d is %+v, want vertex %d served", label, i, r, p.ids[i])
		}
	}
}

// holdSlots occupies every round slot with a one-vertex request (vertices
// 0, 1, …) held at the gate; each must have left alone, at once.
func holdSlots(t *testing.T, svc *Service, fn *failNet) []*pendingPredict {
	t.Helper()
	held := make([]*pendingPredict, svc.cfg.InflightBatches)
	for i := range held {
		held[i] = predictAsync(svc, []int{i})
		if got := awaitBatch(t, fn); !slices.Equal(got, []int32{int32(i)}) {
			t.Fatalf("request [%d] with a free slot dispatched as %v", i, got)
		}
	}
	return held
}

func ids32(ids []int) []int32 {
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = int32(id)
	}
	return out
}

func span(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for v := lo; v < hi; v++ {
		out = append(out, v)
	}
	return out
}

// TestDispatchWorkConserving pins the batcher's rule on a gated single
// shard: with a free round slot a request leaves alone and at once; while
// every slot is busy the arrivals coalesce, in FIFO order, into batches of
// at most MaxBatch vertices (a larger request alone); and closing the
// queue mid-coalesce still dispatches every request taken.
func TestDispatchWorkConserving(t *testing.T) {
	d := datasets.MustLoad("cora")
	m := testModel(d, nn.KindGCN, 21)

	t.Run("free slot goes alone", func(t *testing.T) {
		reg := obs.NewRegistry()
		svc, fn := newGatedService(t, d, Config{Shards: 1, Metrics: reg})
		if err := svc.SwapModel(m); err != nil {
			t.Fatal(err)
		}
		a := predictAsync(svc, []int{5, 9, 7})
		if got := awaitBatch(t, fn); !slices.Equal(got, []int32{5, 9, 7}) {
			t.Fatalf("lone request dispatched as %v", got)
		}
		// One slot is held; the other is free, so the next request leaves
		// at once too, not coalesced behind the first.
		b := predictAsync(svc, []int{11})
		if got := awaitBatch(t, fn); !slices.Equal(got, []int32{11}) {
			t.Fatalf("request with the second slot free dispatched as %v", got)
		}
		fn.open()
		a.requireServed(t, "a")
		b.requireServed(t, "b")
		if q, r := svc.m.stageQueue.Count(), svc.m.stageRound.Count(); q != 2 || r != 2 {
			t.Fatalf("stage observations queue %d round %d, want one per request (2)", q, r)
		}
	})

	// scenario holds both slots, queues reqs one at a time (so FIFO order is
	// the slice order), optionally starts Close, then frees one slot at a
	// time and checks the batches in the order they reach the shard.
	scenario := func(t *testing.T, maxBatch int, reqs [][]int, closing bool, want [][]int) {
		svc, fn := newGatedService(t, d, Config{Shards: 1, MaxBatch: maxBatch})
		if err := svc.SwapModel(m); err != nil {
			t.Fatal(err)
		}
		held := holdSlots(t, svc, fn)
		var pending []*pendingPredict
		for i, ids := range reqs {
			pending = append(pending, predictAsync(svc, ids))
			waitFor(t, fmt.Sprintf("request %d queued", i), func() bool { return svc.QueueDepth() == i+1 })
		}
		requireNoBatch(t, fn)
		closed := make(chan error, 1)
		if closing {
			go func() { closed <- svc.Close() }()
			waitFor(t, "Close to stop admission", func() bool { return isClosed(svc) })
		}
		for i, w := range want {
			fn.gate <- struct{}{} // one held round finishes: a slot frees
			if got := awaitBatch(t, fn); !slices.Equal(got, ids32(w)) {
				t.Fatalf("batch %d is %v, want %v", i, got, w)
			}
		}
		requireNoBatch(t, fn)
		fn.open()
		for i, p := range append(held, pending...) {
			p.requireServed(t, fmt.Sprintf("request %d", i))
		}
		if closing {
			if err := <-closed; err != nil {
				t.Fatal(err)
			}
		}
		requireNoBatch(t, fn)
	}

	t.Run("busy slots coalesce FIFO up to MaxBatch", func(t *testing.T) {
		r := [][]int{
			{10, 11, 12}, {13}, {14, 15}, // 6 vertices; the next would make 9
			{16, 17, 18},   // 3; the next would make 13
			span(20, 30),   // 10 > MaxBatch: alone
			{30}, {31, 32}, // queued behind it, coalesce once it leaves
		}
		scenario(t, 8, r, false, [][]int{
			slices.Concat(r[0], r[1], r[2]),
			r[3],
			r[4],
			slices.Concat(r[5], r[6]),
		})
	})

	t.Run("close while coalescing", func(t *testing.T) {
		// Two requests under MaxBatch: the batcher is waiting on a slot or
		// an arrival when the queue closes, and must still dispatch them.
		r := [][]int{{10, 11}, {12}}
		scenario(t, 4, r, true, [][]int{slices.Concat(r[0], r[1])})
	})

	t.Run("close with a request carried over", func(t *testing.T) {
		r := [][]int{{10, 11}, {12}, {13, 14}} // the third does not fit
		scenario(t, 4, r, true, [][]int{slices.Concat(r[0], r[1]), r[2]})
	})
}

// TestBatchCompositionInvariance is what lets batches be any size: for a
// random partition of sampled vertices into batches of 1 … MaxBatch, every
// vertex's logits are bit-identical to serving it alone — the one row
// kernel per preparation-CSR row and the dense products are all row-pure
// (DESIGN.md §14).
func TestBatchCompositionInvariance(t *testing.T) {
	d := datasets.MustLoad("cora")
	const maxBatch = 64
	sample := rand.New(rand.NewSource(5)).Perm(d.Graph.N)[:160]
	for _, kind := range []nn.Kind{nn.KindGCN, nn.KindSAGE} {
		m := testModel(d, kind, 23)
		for _, shards := range []int{1, 2, 4} {
			name := fmt.Sprintf("%s/S%d", kind, shards)
			t.Run(name, func(t *testing.T) {
				svc := newTestService(t, d, Config{Shards: shards, MaxBatch: maxBatch})
				if err := svc.SwapModel(m); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(len(name))))
				order := append([]int(nil), sample...)
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				batched := map[int][]float32{}
				for lo := 0; lo < len(order); {
					hi := min(lo+1+rng.Intn(maxBatch), len(order))
					results, err := svc.Predict(order[lo:hi])
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range results {
						batched[r.Vertex] = r.Logits
					}
					lo = hi
				}
				for _, v := range sample {
					alone, err := svc.Predict([]int{v})
					if err != nil {
						t.Fatal(err)
					}
					for j, x := range alone[0].Logits {
						if math.Float32bits(x) != math.Float32bits(batched[v][j]) {
							t.Fatalf("vertex %d logit %d: %v alone, %v in a batch", v, j, x, batched[v][j])
						}
					}
				}
			})
		}
	}
}
