// Package serve is EC-Graph's production inference service: a long-running
// process that loads a trained model, shards the graph across serving
// replicas, and answers per-vertex classification requests.
//
// The control-plane shape mirrors the training stack (and DRONE's
// master/worker split): a front node owns admission, batching and version
// control; shard nodes own a partition of the vertices and answer batch
// inference and embedding-row fetches over the existing transport. The
// data-plane reuses the training kernels directly — aggregation runs each
// shard's compact LocalCSR rows through the training row kernel
// (DESIGN.md §10), and cross-shard neighbour rows ride the ec wire format
// the training exchange uses, raw.
//
// Serving is layer-wise precomputed: when a model version is installed,
// every shard computes its owned vertices' penultimate aggregation source
// S^L (the input to the final layer's SpMM) through a coordinator-driven
// transform/aggregate barrier protocol, and fetches the S^L rows of its
// ghost set from their owners once. A request for vertex v then costs one
// sparse row aggregation over S^L plus the final dense transform, with no
// peer call — milliseconds, not a full-graph forward pass. Hot model swap
// installs the next version alongside the current one and atomically flips
// the active pointer; in-flight batches drain on the version they started
// on, so a swap never fails a request.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ecgraph/internal/graph"
	"ecgraph/internal/nn"
	"ecgraph/internal/obs"
	"ecgraph/internal/partition"
	"ecgraph/internal/tensor"
	"ecgraph/internal/transport"
)

// Sentinel errors the admission path returns; the HTTP front door maps
// them to status codes (429 for overload, 503 for the rest).
var (
	ErrNotReady     = errors.New("serve: no model version active yet")
	ErrOverloaded   = errors.New("serve: admission queue full")
	ErrShuttingDown = errors.New("serve: shutting down")
)

// Config parameterises a Service. Zero values pick the documented
// defaults.
type Config struct {
	Graph    *graph.Graph   // the served graph (required)
	Features *tensor.Matrix // vertex features, Graph.N rows (required)

	Shards      int                   // serving replicas (default 2)
	Partitioner partition.Partitioner // vertex → shard (default partition.Hash)

	// Net carries all shard traffic. It must have at least Shards+1
	// nodes: shards occupy nodes 0..Shards-1 and the front (coordinator)
	// is node Shards. Nil builds a private in-proc stack that Close
	// tears down.
	Net transport.Network

	QueueDepth      int // admission queue bound, in requests (default 256)
	MaxBatch        int // max vertices coalesced into one batch (default 256)
	InflightBatches int // batch rounds allowed in flight at once (default 2)

	DrainTimeout time.Duration // bound on waiting out old-version batches during swap (default 10s)

	Metrics *obs.Registry // nil disables telemetry
}

func (c Config) withDefaults() (Config, error) {
	if c.Graph == nil || c.Features == nil {
		return c, errors.New("serve: Config needs Graph and Features")
	}
	if c.Features.Rows != c.Graph.N {
		return c, fmt.Errorf("serve: features have %d rows for %d vertices", c.Features.Rows, c.Graph.N)
	}
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.Shards > c.Graph.N {
		return c, fmt.Errorf("serve: %d shards for %d vertices", c.Shards, c.Graph.N)
	}
	if c.Partitioner == nil {
		c.Partitioner = partition.Hash{}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.InflightBatches <= 0 {
		c.InflightBatches = 2
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c, nil
}

// Result is one vertex's answer. OK means its shard answered; a failed shard
// call leaves its vertices OK=false with the error in Err, and the rest of
// the batch still succeeds.
type Result struct {
	Vertex  int
	Class   int
	Logits  []float32
	Version uint32
	OK      bool
	Err     string
}

// request is one Predict call waiting in the admission queue.
type request struct {
	ids     []int
	results []Result
	err     error
	enq     time.Time
	done    chan struct{}
}

// Service is the serving front: admission queue, batcher, version control
// and the coordinator side of the shard protocol.
type Service struct {
	cfg    Config
	net    transport.Network
	ownNet bool
	front  int // front node id on net

	shards []*shard
	owner  []int32 // vertex → shard

	// Version control: activeV flips under verMu; batch rounds retain
	// the version they dispatch against under an RLock, so after a flip
	// completes no new work lands on the old version and the swap can
	// wait its refcount down to zero before dropping it.
	verMu    sync.RWMutex
	activeV  uint32
	refs     map[uint32]*atomic.Int64
	nextV    uint32
	swapMu   sync.Mutex
	activeOK atomic.Bool

	queue       chan *request
	waiting     atomic.Int64 // admitted requests whose batch has not left yet
	admissionMu sync.RWMutex
	closed      bool
	dispatchWG  sync.WaitGroup // the dispatcher goroutine
	roundWG     sync.WaitGroup // in-flight batch rounds
	roundSem    chan struct{}

	m *serveMetrics
}

// serveMetrics holds the ecgraph_serve_* instruments. All fields are
// nil-safe no-ops when Config.Metrics is nil.
type serveMetrics struct {
	reqOK, reqRejected, reqError *obs.Counter
	vertexFailed                 *obs.Counter
	queueDepth                   *obs.Gauge
	batchSize                    *obs.Histogram
	latency                      *obs.Histogram
	stageQueue, stageRound       *obs.Histogram
	swapOK, swapError            *obs.Counter
	activeVersion                *obs.Gauge
}

func newServeMetrics(reg *obs.Registry) *serveMetrics {
	m := &serveMetrics{}
	req := reg.CounterVec("ecgraph_serve_requests_total",
		"Predict requests by outcome.", "result")
	m.reqOK = req.With("ok")
	m.reqRejected = req.With("rejected")
	m.reqError = req.With("error")
	m.vertexFailed = reg.Counter("ecgraph_serve_failed_vertices_total",
		"Vertices answered with a per-vertex error inside otherwise-served batches.")
	m.queueDepth = reg.Gauge("ecgraph_serve_queue_depth",
		"Requests waiting in the admission queue.")
	m.batchSize = reg.Histogram("ecgraph_serve_batch_size",
		"Vertices per dispatched batch.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
	m.latency = reg.Histogram("ecgraph_serve_latency_seconds",
		"Enqueue-to-answer latency per request.", obs.DefLatencyBuckets)
	stage := reg.HistogramVec("ecgraph_serve_stage_seconds",
		"Per-request latency by stage: queue is enqueue to round start, round is round start to answers.",
		obs.DefLatencyBuckets, "stage")
	m.stageQueue = stage.With("queue")
	m.stageRound = stage.With("round")
	swap := reg.CounterVec("ecgraph_serve_swap_total",
		"Model swaps by outcome.", "result")
	m.swapOK = swap.With("ok")
	m.swapError = swap.With("error")
	m.activeVersion = reg.Gauge("ecgraph_serve_active_version",
		"Currently served model version (0 before the first install).")
	return m
}

// New builds the service: partitions the graph, constructs one shard per
// replica, registers the shard handlers on the transport and starts the
// batcher. No model is active until the first Swap succeeds.
func New(cfg Config) (*Service, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:      cfg,
		net:      cfg.Net,
		front:    cfg.Shards,
		refs:     map[uint32]*atomic.Int64{},
		nextV:    1,
		queue:    make(chan *request, cfg.QueueDepth),
		roundSem: make(chan struct{}, cfg.InflightBatches),
		m:        newServeMetrics(cfg.Metrics),
	}
	if s.net == nil {
		s.net = transport.NewStack(transport.NewInProc(cfg.Shards+1),
			transport.WithConcurrency(cfg.Shards))
		s.ownNet = true
	}
	parts := cfg.Partitioner.Partition(cfg.Graph, cfg.Shards)
	s.owner = make([]int32, cfg.Graph.N)
	for v, p := range parts {
		s.owner[v] = int32(p)
	}
	adj := graph.Normalize(cfg.Graph)
	for i := 0; i < cfg.Shards; i++ {
		sh := newShard(i, cfg, adj, s.owner, s.net)
		s.net.Register(i, sh.handle)
		s.shards = append(s.shards, sh)
	}
	s.dispatchWG.Add(1)
	go s.dispatch()
	return s, nil
}

// ActiveVersion returns the currently served version, 0 before the first
// successful Swap.
func (s *Service) ActiveVersion() uint32 {
	s.verMu.RLock()
	defer s.verMu.RUnlock()
	return s.activeV
}

// QueueDepth reports the requests currently waiting for dispatch: in the
// admission queue or in the batch the dispatcher is coalescing.
func (s *Service) QueueDepth() int { return int(s.waiting.Load()) }

// NumShards returns the serving replica count.
func (s *Service) NumShards() int { return s.cfg.Shards }

// Predict answers one batch of vertex ids, blocking until the batcher has
// served it. Overload, shutdown and the pre-first-swap window are reported
// as request-level errors; individual vertex failures come back in the
// per-vertex Results.
func (s *Service) Predict(ids []int) ([]Result, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	for _, id := range ids {
		if id < 0 || id >= s.cfg.Graph.N {
			return nil, fmt.Errorf("serve: vertex %d outside [0,%d)", id, s.cfg.Graph.N)
		}
	}
	if !s.activeOK.Load() {
		s.m.reqError.Inc()
		return nil, ErrNotReady
	}
	r := &request{ids: ids, enq: time.Now(), done: make(chan struct{})}
	s.admissionMu.RLock()
	if s.closed {
		s.admissionMu.RUnlock()
		s.m.reqError.Inc()
		return nil, ErrShuttingDown
	}
	s.waiting.Add(1) // before the send, so the dispatcher's decrement follows it
	select {
	case s.queue <- r:
		s.m.queueDepth.Add(1)
	default:
		s.waiting.Add(-1)
		s.admissionMu.RUnlock()
		s.m.reqRejected.Inc()
		return nil, ErrOverloaded
	}
	s.admissionMu.RUnlock()
	<-r.done
	if r.err != nil {
		s.m.reqError.Inc()
		return nil, r.err
	}
	s.m.reqOK.Inc()
	s.m.latency.Observe(time.Since(r.enq).Seconds())
	return r.results, nil
}

// SwapModel installs m as the next model version across all shards and
// atomically flips serving to it. The previous version keeps answering its
// in-flight batches and is dropped once they drain; a failed preparation
// leaves the current version serving untouched.
func (s *Service) SwapModel(m *nn.Model) error {
	if err := s.swapModel(m); err != nil {
		s.m.swapError.Inc()
		return err
	}
	s.m.swapOK.Inc()
	return nil
}

func (s *Service) swapModel(m *nn.Model) error {
	if m.Kind == nn.KindGAT {
		return fmt.Errorf("serve: GAT models cannot be served (the shards aggregate with Â's weights, not attention)")
	}
	if m.Dims[0] != s.cfg.Features.Cols {
		return fmt.Errorf("serve: model wants %d input features, graph has %d", m.Dims[0], s.cfg.Features.Cols)
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()

	v := s.nextV
	s.nextV++
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return fmt.Errorf("serve: serialise model: %w", err)
	}
	w := transport.GetWriter(8 + buf.Len())
	w.Uint32(v)
	w.Uint8s(buf.Bytes())
	installReq := append([]byte(nil), w.Bytes()...)
	w.Release()
	if err := s.broadcast(methodInstall, installReq); err != nil {
		s.abortVersion(v)
		return fmt.Errorf("serve: install version %d: %w", v, err)
	}
	// Layer-wise preparation with a barrier between phases: transform
	// needs only local rows, aggregate fetches peers' freshly
	// transformed rows, so every shard must finish transform(l) before
	// any shard may aggregate(l). At the final layer aggregate only
	// installs the ghost rows requests will read.
	for l := 1; l <= m.NumLayers(); l++ {
		if err := s.broadcast(methodPrep, prepReq(v, l, phaseTransform)); err != nil {
			s.abortVersion(v)
			return fmt.Errorf("serve: version %d transform layer %d: %w", v, l, err)
		}
		if err := s.broadcast(methodPrep, prepReq(v, l, phaseAggregate)); err != nil {
			s.abortVersion(v)
			return fmt.Errorf("serve: version %d aggregate layer %d: %w", v, l, err)
		}
	}

	s.verMu.Lock()
	old := s.activeV
	s.activeV = v
	if s.refs[v] == nil {
		s.refs[v] = &atomic.Int64{}
	}
	s.verMu.Unlock()
	s.activeOK.Store(true)
	s.m.activeVersion.Set(float64(v))

	if old != 0 {
		s.drainAndDrop(old)
	}
	return nil
}

// drainAndDrop waits for the old version's in-flight batches, then tells
// the shards to free its state. A drain that outlives DrainTimeout gives
// up waiting and drops anyway — by then the straggler batch has long
// exceeded any client timeout.
func (s *Service) drainAndDrop(v uint32) {
	deadline := time.Now().Add(s.cfg.DrainTimeout)
	for {
		s.verMu.RLock()
		ref := s.refs[v]
		s.verMu.RUnlock()
		if ref == nil || ref.Load() == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(500 * time.Microsecond)
	}
	s.abortVersion(v)
}

// abortVersion drops a version's state on every shard and forgets its
// refcount. Used both for swap cleanup and failed-preparation rollback.
func (s *Service) abortVersion(v uint32) {
	w := transport.GetWriter(4)
	w.Uint32(v)
	req := append([]byte(nil), w.Bytes()...)
	w.Release()
	_ = s.broadcast(methodDrop, req)
	s.verMu.Lock()
	delete(s.refs, v)
	s.verMu.Unlock()
}

// broadcast fans req out to every shard and returns the first error.
func (s *Service) broadcast(method string, req []byte) error {
	calls := make([]transport.Call, s.cfg.Shards)
	for i := range calls {
		calls[i] = transport.Call{Dst: i, Method: method, Req: req}
	}
	for i, res := range s.net.CallMulti(s.front, calls) {
		if res.Err != nil {
			return fmt.Errorf("shard %d: %w", i, res.Err)
		}
	}
	return nil
}

// retainActive pins the current version for one batch round. The RLock
// pairs with the flip's Lock: once SwapModel has flipped, no new round can
// retain the old version, so the drain wait is race-free.
func (s *Service) retainActive() (uint32, *atomic.Int64) {
	s.verMu.Lock()
	v := s.activeV
	ref := s.refs[v]
	if ref == nil {
		ref = &atomic.Int64{}
		s.refs[v] = ref
	}
	ref.Add(1)
	s.verMu.Unlock()
	return v, ref
}

// Close stops admission, drains the queued and in-flight requests, and
// releases the transport if the service owns it. Queued requests are still
// answered — shutdown drains, it does not drop.
func (s *Service) Close() error {
	s.admissionMu.Lock()
	already := s.closed
	s.closed = true
	if !already {
		close(s.queue)
	}
	s.admissionMu.Unlock()
	if already {
		return nil
	}
	s.dispatchWG.Wait()
	s.roundWG.Wait()
	if s.ownNet {
		return s.net.Close()
	}
	return nil
}

// CacheStats returns how many ghost rows the active version holds resident,
// summed over the shards: every shard's whole ghost set, installed with the
// version (0 before the first swap).
func (s *Service) CacheStats() (entries int) {
	if s.ActiveVersion() == 0 {
		return 0
	}
	for _, sh := range s.shards {
		entries += len(sh.ghostIDs)
	}
	return entries
}
