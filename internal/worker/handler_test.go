package worker

import (
	"strings"
	"testing"
	"time"

	"ecgraph/internal/ec"
	"ecgraph/internal/graph"
	"ecgraph/internal/nn"
	"ecgraph/internal/tensor"
	"ecgraph/internal/transport"
)

func newTestWorker(t *testing.T, id int, opts Options) *Worker {
	t.Helper()
	g, topo := pathTopo()
	adj := graph.Normalize(g)
	return New(Config{
		ID: id, Topo: topo, Adj: adj,
		Feats:  tensor.New(6, 4),
		Labels: make([]int, 6), TrainMask: make([]bool, 6),
		NumTrainGlobal: 1,
		Model:          nn.NewModel(nn.KindGCN, []int{4, 3, 2}, 1),
		Opts:           opts,
	})
}

func TestHandlerUnknownMethod(t *testing.T) {
	w := newTestWorker(t, 0, Options{})
	if _, err := w.Handler()("w.bogus", nil); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("expected unknown-method error, got %v", err)
	}
}

func TestHandlerMalformedPayloadRecovered(t *testing.T) {
	w := newTestWorker(t, 0, Options{})
	// Truncated request: the codec panics internally; the handler must
	// convert that into an error, never crash the process.
	if _, err := w.Handler()(MethodGetH, []byte{1}); err == nil {
		t.Fatalf("expected error for truncated payload")
	}
}

func TestHandlerUnknownRequesterPairSet(t *testing.T) {
	w := newTestWorker(t, 0, Options{})
	req := transport.NewWriter(16)
	req.Byte(1)   // layer
	req.Uint32(0) // epoch
	req.Int32(0)  // requester == self → no pair set
	req.Byte(0)   // no subset
	if _, err := w.Handler()(MethodGetH, req.Bytes()); err == nil || !strings.Contains(err.Error(), "no pair set") {
		t.Fatalf("expected pair-set error, got %v", err)
	}
	// Same for gradients and features.
	greq := transport.NewWriter(16)
	greq.Byte(2)
	greq.Uint32(0)
	greq.Int32(0)
	if _, err := w.Handler()(MethodGetG, greq.Bytes()); err == nil {
		t.Fatalf("expected pair-set error for getG")
	}
	xreq := transport.NewWriter(4)
	xreq.Int32(0)
	if _, err := w.Handler()(MethodGetX, xreq.Bytes()); err == nil {
		t.Fatalf("expected pair-set error for getX")
	}
}

func TestHandlerStaleEpochRecoveredAsError(t *testing.T) {
	w := newTestWorker(t, 0, Options{})
	w.hStore.Put(1, 5, tensor.New(3, 3)) // epoch 5 already published
	req := transport.NewWriter(16)
	req.Byte(1)   // layer 1
	req.Uint32(2) // epoch 2 < 5 → stale, matStore panics
	req.Int32(1)  // requester 1 has a pair set
	req.Byte(0)
	if _, err := w.Handler()(MethodGetH, req.Bytes()); err == nil || !strings.Contains(err.Error(), "published") {
		t.Fatalf("expected stale-epoch error, got %v", err)
	}
}

func TestGetXServesPairRows(t *testing.T) {
	g, topo := pathTopo()
	adj := graph.Normalize(g)
	feats := tensor.New(6, 2)
	for i := range feats.Data {
		feats.Data[i] = float32(i)
	}
	w := New(Config{
		ID: 1, Topo: topo, Adj: adj,
		Feats:  feats,
		Labels: make([]int, 6), TrainMask: make([]bool, 6),
		Model: nn.NewModel(nn.KindGCN, []int{2, 2}, 1),
	})
	req := transport.NewWriter(4)
	req.Int32(0) // worker 0 needs vertices {1,3,5} from worker 1
	resp, err := w.Handler()(MethodGetX, req.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r := transport.NewReader(resp)
	if scheme := r.Byte(); scheme != 0 {
		t.Fatalf("getX must respond raw, got scheme %d", scheme)
	}
	rows := r.Matrix()
	if rows.Rows != 3 || rows.Cols != 2 {
		t.Fatalf("getX returned %dx%d", rows.Rows, rows.Cols)
	}
	// First row should be vertex 1's features.
	if rows.At(0, 0) != feats.At(1, 0) {
		t.Fatalf("getX rows mismatched")
	}
}

// TestGhostFeaturesRejectMisshapenReply: the first-hop feature fetch has no
// fallback, so a getX reply a row short or a row long fails it by name —
// never a zero ghost row or a write into the next owner's slots.
func TestGhostFeaturesRejectMisshapenReply(t *testing.T) {
	g, topo := pathTopo()
	for _, delta := range []int{-1, 1} {
		net := &tapNet{Network: transport.NewInProc(2), after: func(_, _ int, _ string, _, resp []byte) []byte {
			m := ec.ParseMatrix(resp)
			return ec.RespondRaw(m.GatherRows(make([]int, m.Rows+delta)))
		}}
		w := New(Config{
			ID: 0, Net: net, Topo: topo, Adj: graph.Normalize(g),
			Feats:  tensor.New(6, 2),
			Labels: make([]int, 6), TrainMask: make([]bool, 6),
			Model: nn.NewModel(nn.KindGCN, []int{2, 2}, 1),
		})
		net.Register(1, newTestWorker(t, 1, Options{}).Handler())
		if err := w.FetchGhostFeatures(); err == nil || !strings.Contains(err.Error(), "pair list wants") {
			t.Fatalf("getX reply with %+d rows: FetchGhostFeatures returned %v", delta, err)
		}
	}
}

// TestECPanicReleasesLock: a codec that panics inside an EC reply (here an
// invalid bit width) becomes an error reply, and the next EC reply of the
// worker still runs — the panic must not leave ecMu held. The second call
// gets a bounded wait; a held lock would block it for good.
func TestECPanicReleasesLock(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   Options
		method string
		layer  byte
	}{
		{"getH", Options{FPScheme: SchemeEC, FPBits: 3}, MethodGetH, 1},
		{"getG", Options{BPScheme: SchemeEC, BPBits: 3}, MethodGetG, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newTestWorker(t, 0, tc.opts)
			w.hStore.Put(1, 0, tensor.New(3, 3))
			w.gStore.Put(2, 0, tensor.New(3, 2))
			req := transport.NewWriter(16)
			req.Byte(tc.layer)
			req.Uint32(0) // epoch
			req.Int32(1)  // requester
			req.Byte(0)   // getH: no subset
			req.Uint32(0) // getH: the requester's boundary
			if _, err := w.Handler()(tc.method, req.Bytes()); err == nil {
				t.Fatal("invalid width served without error")
			}
			done := make(chan error, 1)
			go func() {
				_, err := w.Handler()(tc.method, req.Bytes())
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("invalid width served without error on the retry")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("second EC reply blocked: ecMu still held after a panicking reply")
			}
		})
	}
}
