package worker

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ecgraph/internal/compress"
	"ecgraph/internal/ec"
	"ecgraph/internal/graph"
	"ecgraph/internal/nn"
	"ecgraph/internal/obs"
	"ecgraph/internal/ps"
	"ecgraph/internal/tensor"
	"ecgraph/internal/transport"
)

// PeerHealth is the worker's view of the supervision layer (implemented
// by supervise.Supervisor): whether a peer is suspect enough to skip, and
// the straggler deadline for calls to it. A nil PeerHealth disables both
// behaviours, leaving the worker exactly as unsupervised.
type PeerHealth interface {
	// SkipPeer reports whether ghost exchanges with the peer should be
	// served from the degraded cache without attempting the call. The
	// worker only honours a skip while degraded serving is within the
	// MaxStaleEpochs bound; beyond it the call is attempted regardless.
	SkipPeer(peer int) bool
	// PeerDeadline returns the per-call deadline for exchanges with the
	// peer, typically a multiple of the transport's EWMA response time;
	// zero keeps the transport's default timeout.
	PeerDeadline(peer int) time.Duration
}

// Scheme selects how ghost messages are encoded on the wire.
type Scheme int

const (
	// SchemeRaw ships float32 rows unmodified (the paper's Non-cp arm).
	SchemeRaw Scheme = iota
	// SchemeCompress applies B-bit bucket quantisation without
	// compensation (Cp-fp / Cp-bp).
	SchemeCompress
	// SchemeEC enables the paper's compensation: ReqEC-FP for embeddings,
	// ResEC-BP for embedding gradients.
	SchemeEC
	// SchemeTopK (backward only) replaces the quantiser with Top-K
	// sparsification under the same error-feedback loop — "Sparsified SGD
	// with Memory", the paper's reference [32] — with k matched to the
	// BPBits byte budget.
	SchemeTopK
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeRaw:
		return "raw"
	case SchemeCompress:
		return "compress"
	case SchemeEC:
		return "ec"
	case SchemeTopK:
		return "topk"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// TakesBits reports whether the scheme's codec can run at the given width:
// any width for raw rows, one of compress.ValidBits for the quantisers and
// for Top-K's byte budget.
func (s Scheme) TakesBits(bits int) bool { return s == SchemeRaw || compress.IsValidBits(bits) }

// Options configures a worker's communication behaviour.
type Options struct {
	FPScheme Scheme
	BPScheme Scheme
	FPBits   int // quantisation width for embeddings
	BPBits   int // quantisation width for embedding gradients
	// AdaptiveBits enables the Bit-Tuner: each responding worker adjusts its
	// FP bit width from the fraction of predicted-approximation wins.
	AdaptiveBits bool
	// Ttr is the trend-group length of ReqEC-FP (the paper uses 10).
	Ttr int
	// MatrixWiseSelector switches ReqEC-FP's selector from the paper's
	// vertex-wise granularity to matrix-wise (one approximation per
	// message) — the §IV-B granularity ablation.
	MatrixWiseSelector bool
	// DelayRounds ≥ 2 enables DistGNN-style delayed remote aggregation:
	// each epoch only ~1/DelayRounds of the ghost embeddings are refreshed,
	// the rest reuse stale cached values. Requires FPScheme == SchemeRaw.
	DelayRounds int
	// MaxStaleEpochs bounds degraded-mode ghost reuse. When a ghost fetch
	// still fails after the transport's own retries, the worker serves the
	// last-good cached rows — or the ReqEC-FP linear prediction when the
	// scheme maintains trend state — as long as the last successful exchange
	// with that peer is at most MaxStaleEpochs epochs old; beyond the bound
	// the epoch fails hard. 0 selects the default (2); negative disables
	// degraded mode so any exhausted fetch is fatal.
	MaxStaleEpochs int
	// Deprecated: ignored. Every epoch overlaps its ghost exchanges with
	// the ghost-independent compute.
	Overlap bool
	// Deprecated: ignored. Quantised ghost payloads are always folded in
	// their packed wire form.
	PackedSpMM bool
}

// RPC method names served by Worker.Handler. MethodGetP is GAT's reverse
// exchange: an owner gathers the partial gradients its holders computed for
// its vertices (gat.go).
const (
	MethodGetX = "w.getX"
	MethodGetH = "w.getH"
	MethodGetG = "w.getG"
	MethodGetP = "w.getP"
)

// Config wires one worker into the cluster.
type Config struct {
	ID    int
	Net   transport.Network
	Topo  *Topology
	Adj   *graph.NormAdjacency // global normalised adjacency, read-only
	Feats *tensor.Matrix       // global feature matrix, read-only
	// Labels and TrainMask are global; the worker extracts its owned rows.
	Labels    []int
	TrainMask []bool
	// NumTrainGlobal is the cluster-wide training-vertex count used to
	// scale the loss gradient.
	NumTrainGlobal int
	Model          *nn.Model // this worker's own replica (not shared)
	PS             *ps.Client
	Opts           Options
	// Health, when non-nil, wires the worker into the supervision layer:
	// suspect peers are skipped in favour of degraded ghost rows and calls
	// carry adaptive straggler deadlines.
	Health PeerHealth
	// Metrics, when non-nil, registers this worker's telemetry families
	// (codec bit widths, selector choices, degraded counters, overlap
	// utilisation); nil costs nothing beyond nil-check branches.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives issue/collect/owned-SpMM/ghost-fold
	// sub-epoch spans on pid 1+ID (pid 0 is the engine's simulated
	// timeline).
	Tracer *obs.Tracer
}

// Worker is one EC-Graph computation node.
type Worker struct {
	cfg  Config
	id   int
	topo *Topology

	owned      []int32         // sorted owned vertex ids
	ownedPos   map[int32]int32 // global id → owned row
	ghostIDs   []int32         // concatenated ghost ids, grouped by owner
	ghostPos   map[int32]int32 // global id → ghost slot
	ghostOwner []int           // peer worker ids with non-empty Needs, ascending

	// adj is the worker's slice of Â in compact local indexing (owned rows
	// first, then ghosts in fetch order), with each CSR row stored
	// owned-columns-first so the overlap pipeline's split SpMM reproduces
	// the fused kernel bit-for-bit.
	adj *graph.LocalCSR

	x *tensor.Matrix // owned feature rows
	// ghostX is the first-hop cache (§III-A): the ghost vertices' feature
	// rows, held from FetchGhostFeatures until the first forward pass folds
	// them into agg1 — their only consumer — and nil from then on. A GAT
	// model reads them at layer 1 every epoch and builds no agg1.
	ghostX *tensor.Matrix
	// agg1 is layer 1's retained aggregate ÂX, built by the first forward
	// pass after FetchGhostFeatures (which resets it) and reused by every
	// later epoch. Epoch goroutine only.
	agg1 *layer1Agg

	labels    []int  // owned labels
	trainMask []bool // owned train mask

	// The pair lists, derived and never sent (DESIGN.md §10): payload row k
	// of a reply is vertex ids[k], gathered from owned row loc[k] by the
	// responder and installed at ghost slot loc[k] by the requester. A
	// pair's list is all of Needs, except on the top-layer getG (l == L),
	// where it is the training vertices among them — RunEpoch leaves every
	// other row of G^L exactly zero and cfg.TrainMask is global, so both
	// ends derive the same sub-list and those rows are neither gathered,
	// compensated, shipped nor folded. A pair whose vertices all train
	// shares one list for both; every layer below L shares one slice. A
	// requester this worker serves nothing has a nil serve list.
	serve [][]pairList // [layer][requester]
	fetch [][]pairList // [layer][owner]

	hStore *matStore // owned rows getH serves per layer (width(dirH, l); layer L holds the logits)
	gStore *matStore // owned G rows per layer
	pStore *matStore // GAT: the ghost block of ∂L/∂hcat per layer, served by getP

	// Per-epoch FP state kept for BP.
	ah   []*tensor.Matrix // AH^{l-1} per layer l ≥ 2 that aggregates first (layer 1's is agg1)
	z    []*tensor.Matrix // Z^l owned pre-activations
	ownH []*tensor.Matrix // H^l owned rows, ownH[0] = x
	att  []*nn.Attention  // GAT: layer l's attention trace over hcat

	// EC state, preallocated per (layer, peer); nil entries where unused.
	fpResp   [][]*ec.ForwardResponder // [layer][requester]
	fpReq    [][]*ec.ForwardRequester // [layer][owner]
	bpResp   [][]*ec.BackwardResponder
	topkResp [][]*ec.TopKResponder

	// ecMu serialises access to the responder-side EC state (fpResp,
	// bpResp, topkResp, tuner), which handler goroutines touch while
	// supervised recovery may be resetting it; see ResetCompensation.
	// fpRows is the getH handler's gather of a pair's rows under ReqEC-FP,
	// reused by every reply this worker serves (it is only touched under
	// ecMu, and Respond keeps no reference to it).
	ecMu          sync.Mutex
	fpRows        []float32
	tuner         *ec.BitTuner
	predictedRows atomic.Int64
	totalRows     atomic.Int64

	// Telemetry. layerBits holds the codec width last served per layer
	// (handler goroutines store, RunEpoch snapshots); commWire/commBlocked
	// accumulate the epoch's ghost-exchange timing on the epoch goroutine.
	obs         workerObs
	layerBits   []atomic.Int64
	commWire    time.Duration
	commBlocked time.Duration

	// DistGNN delayed-aggregation ghost caches per layer.
	ghostHCache []*tensor.Matrix

	// handoffH holds H rows received by view-change handoff for vertices
	// this worker now owns but has never computed locally, per layer and
	// global vertex id. Served on re-export (a double move with no epoch in
	// between); superseded by ownH as soon as an epoch runs. Nil until the
	// first import.
	handoffH []map[int32][]float32

	// Degraded-mode state: the last good ghost rows per exchange, layer and
	// owning peer, bounding how stale a served fallback may be. Only the
	// epoch goroutine touches these.
	last     [2][][]lastGood // [direction][layer][owner]
	degraded int             // degraded fetches served this epoch
	skips    int             // degraded fetches served proactively (suspect/straggling peer)

	// scratch is the epoch goroutine's arena for layer-transient compute
	// scratch: the packed fold's compact output and its strip decode
	// buffer. Reset at every layer entry; per the arena
	// ownership rule (DESIGN.md §15) nothing retained across a layer may
	// come from it.
	scratch *tensor.Arena
}

// New builds the worker's local structures from the global graph. It does
// not perform any communication; call FetchGhostFeatures once all workers
// are registered on the network.
func New(cfg Config) *Worker {
	if cfg.Opts.DelayRounds >= 2 && cfg.Opts.FPScheme != SchemeRaw {
		panic("worker: delayed aggregation requires SchemeRaw in FP")
	}
	if cfg.Opts.Ttr == 0 {
		cfg.Opts.Ttr = 10
	}
	if cfg.Opts.MaxStaleEpochs == 0 {
		cfg.Opts.MaxStaleEpochs = 2
	}
	L := cfg.Model.NumLayers()
	w := &Worker{
		cfg:       cfg,
		id:        cfg.ID,
		topo:      cfg.Topo,
		owned:     cfg.Topo.Owned[cfg.ID],
		ownedPos:  make(map[int32]int32),
		ghostPos:  make(map[int32]int32),
		hStore:    newMatStore(L + 1),
		gStore:    newMatStore(L + 1),
		pStore:    newMatStore(L + 1),
		ah:        make([]*tensor.Matrix, L+1),
		z:         make([]*tensor.Matrix, L+1),
		ownH:      make([]*tensor.Matrix, L+1),
		att:       make([]*nn.Attention, L+1),
		layerBits: make([]atomic.Int64, L+1),
		scratch:   tensor.NewArena(0),
	}
	w.obs = newWorkerObs(cfg.Metrics, cfg.Tracer, cfg.ID, L)
	for i, v := range w.owned {
		w.ownedPos[v] = int32(i)
	}
	// Ghost slots are grouped by owner in ascending owner order: payload row
	// k of owner j lands at slot fetchAll[j].loc[k].
	fetchAll := make([]pairList, cfg.Topo.NumWorkers)
	for j := 0; j < cfg.Topo.NumWorkers; j++ {
		lst := cfg.Topo.Needs[cfg.ID][j]
		if len(lst) == 0 {
			continue
		}
		w.ghostOwner = append(w.ghostOwner, j)
		slots := make([]int32, len(lst))
		for k, u := range lst {
			slots[k] = int32(len(w.ghostIDs))
			w.ghostPos[u] = slots[k]
			w.ghostIDs = append(w.ghostIDs, u)
		}
		fetchAll[j] = pairList{ids: lst, loc: slots}
	}

	// Local CSR over owned rows with compact column indexing.
	nOwned := len(w.owned)
	rowPtr := make([]int32, nOwned+1)
	var colIdx []int32
	var val []float32
	for i, v := range w.owned {
		for p := cfg.Adj.RowPtr[v]; p < cfg.Adj.RowPtr[v+1]; p++ {
			u := cfg.Adj.ColIdx[p]
			var c int32
			if pos, ok := w.ownedPos[u]; ok {
				c = pos
			} else if pos, ok := w.ghostPos[u]; ok {
				c = int32(nOwned) + pos
			} else {
				panic(fmt.Sprintf("worker %d: neighbour %d of %d neither owned nor ghost", cfg.ID, u, v))
			}
			colIdx = append(colIdx, c)
			val = append(val, cfg.Adj.Val[p])
		}
		rowPtr[i+1] = int32(len(colIdx))
	}
	w.adj = graph.NewLocalCSR(nOwned, rowPtr, colIdx, val)

	// Owned slices of features, labels and masks.
	w.x = cfg.Feats.GatherRows(int32sToInts(w.owned))
	w.ownH[0] = w.x
	w.labels = make([]int, nOwned)
	w.trainMask = make([]bool, nOwned)
	for i, v := range w.owned {
		w.labels[i] = cfg.Labels[v]
		w.trainMask[i] = cfg.TrainMask[v]
	}

	// The served pair lists (owned rows per requester), and both roles'
	// top-layer training sub-lists.
	serveAll, serveTop := make([]pairList, cfg.Topo.NumWorkers), make([]pairList, cfg.Topo.NumWorkers)
	fetchTop := make([]pairList, cfg.Topo.NumWorkers)
	for i := 0; i < cfg.Topo.NumWorkers; i++ {
		lst := cfg.Topo.Needs[i][cfg.ID]
		if len(lst) == 0 {
			continue
		}
		rows := make([]int32, len(lst))
		for k, u := range lst {
			rows[k] = w.ownedPos[u]
		}
		serveAll[i] = pairList{ids: lst, loc: rows}
		serveTop[i] = serveAll[i].trainingOnly(cfg.TrainMask)
	}
	for _, j := range w.ghostOwner {
		fetchTop[j] = fetchAll[j].trainingOnly(cfg.TrainMask)
	}
	w.serve, w.fetch = make([][]pairList, L+1), make([][]pairList, L+1)
	for l := 0; l < L; l++ {
		w.serve[l], w.fetch[l] = serveAll, fetchAll
	}
	w.serve[L], w.fetch[L] = serveTop, fetchTop
	if cfg.Tracer != nil {
		shipped, derived := w.topGRows()
		cfg.Tracer.Instant("worker start", "setup", 1+w.id, 0, time.Now(), map[string]interface{}{
			"owned": len(w.owned), "ghosts": len(w.ghostIDs),
			"getg_top_rows_shipped": shipped, "getg_top_rows_derived": derived,
		})
	}

	// EC state. FP responders/requesters cover embedding layers 1..L−1
	// (layer 0 is the feature cache); BP responders cover layers 2..L, one
	// per requester — per owner for GAT, whose getP runs the other way.
	w.fpResp = make([][]*ec.ForwardResponder, L+1)
	w.fpReq = make([][]*ec.ForwardRequester, L+1)
	w.bpResp = make([][]*ec.BackwardResponder, L+1)
	if cfg.Opts.FPScheme == SchemeEC {
		for l := 1; l < L; l++ {
			w.fpResp[l] = make([]*ec.ForwardResponder, cfg.Topo.NumWorkers)
			w.fpReq[l] = make([]*ec.ForwardRequester, cfg.Topo.NumWorkers)
			for i, p := range serveAll {
				if p.loc != nil {
					r := ec.NewForwardResponder(cfg.Opts.Ttr)
					if cfg.Opts.MatrixWiseSelector {
						r.Granularity = ec.GranularityMatrix
					}
					w.fpResp[l][i] = r
				}
			}
			for _, j := range w.ghostOwner {
				w.fpReq[l][j] = ec.NewForwardRequester(cfg.Opts.Ttr)
			}
		}
	}
	bpPeers := serveAll
	if cfg.Model.Kind == nn.KindGAT {
		bpPeers = fetchAll
	}
	if cfg.Opts.BPScheme == SchemeEC {
		for l := 2; l <= L; l++ {
			w.bpResp[l] = make([]*ec.BackwardResponder, cfg.Topo.NumWorkers)
			for i, p := range bpPeers {
				if p.loc != nil {
					w.bpResp[l][i] = ec.NewBackwardResponder()
				}
			}
		}
	}
	if cfg.Opts.BPScheme == SchemeTopK {
		w.topkResp = make([][]*ec.TopKResponder, L+1)
		for l := 2; l <= L; l++ {
			w.topkResp[l] = make([]*ec.TopKResponder, cfg.Topo.NumWorkers)
			for i, p := range bpPeers {
				if p.loc != nil {
					w.topkResp[l][i] = ec.NewTopKResponder(cfg.Opts.BPBits)
				}
			}
		}
	}
	if cfg.Opts.AdaptiveBits {
		w.tuner = ec.NewBitTuner(cfg.Opts.FPBits)
	}
	if cfg.Opts.DelayRounds >= 2 {
		w.ghostHCache = make([]*tensor.Matrix, L+1)
	}
	for d := range w.last {
		w.last[d] = make([][]lastGood, L+1)
		for l := range w.last[d] {
			w.last[d][l] = make([]lastGood, cfg.Topo.NumWorkers)
		}
	}
	w.forgetLastGood()
	return w
}

// forgetLastGood empties every degraded-mode record.
func (w *Worker) forgetLastGood() {
	for _, byLayer := range w.last {
		for _, byOwner := range byLayer {
			for j := range byOwner {
				byOwner[j] = lastGood{epoch: -1}
			}
		}
	}
}

// pairList is one pair's exchange list as this worker sees it: the vertex
// ids in wire order (ascending) and each one's local position — owned row
// on the serving side, ghost slot on the fetching side.
type pairList struct{ ids, loc []int32 }

// trainingOnly returns the sub-list of p's training vertices — p itself
// when they all are.
func (p pairList) trainingOnly(mask []bool) pairList {
	n := 0
	for _, v := range p.ids {
		if mask[v] {
			n++
		}
	}
	if n == len(p.ids) {
		return p
	}
	out := pairList{ids: make([]int32, 0, n), loc: make([]int32, 0, n)}
	for k, v := range p.ids {
		if mask[v] {
			out.ids = append(out.ids, v)
			out.loc = append(out.loc, p.loc[k])
		}
	}
	return out
}

// needsAt returns the vertices whose layer-l rows worker owner ships to
// worker req, in payload order, for a pair this worker is one end of:
// Needs[req][owner], except on the top-layer getG (l == L: H^L, the logits,
// is never exchanged), which covers training vertices only. The handler,
// the merge, the last-good caches and the handoff all index a pair's
// payload, residual and cache rows through it (needsIndex), so they cannot
// disagree about which row is whose.
func (w *Worker) needsAt(l, req, owner int) []int32 {
	if req == w.id {
		return w.fetch[l][owner].ids
	}
	return w.serve[l][req].ids
}

// topGRows counts, over this worker's requesters, the top-layer getG rows it
// ships per epoch and the rows both ends derive as zero instead.
func (w *Worker) topGRows() (shipped, derived int) {
	all, top := w.serve[0], w.serve[len(w.serve)-1]
	for i := range all {
		shipped += len(top[i].ids)
		derived += len(all[i].ids) - len(top[i].ids)
	}
	return shipped, derived
}

// gatherInto copies h's rows into buf's storage, growing it when it is too
// small, and returns them as a len(rows)×h.Cols matrix.
func gatherInto(buf []float32, h *tensor.Matrix, rows []int32) *tensor.Matrix {
	n := len(rows) * h.Cols
	if cap(buf) < n {
		buf = make([]float32, n)
	}
	m := tensor.FromSlice(len(rows), h.Cols, buf[:n])
	for i, r := range rows {
		copy(m.Row(i), h.Row(int(r)))
	}
	return m
}

func int32sToInts(v []int32) []int {
	out := make([]int, len(v))
	for i, x := range v {
		out[i] = int(x)
	}
	return out
}

// NumOwned returns the number of vertices this worker owns.
func (w *Worker) NumOwned() int { return len(w.owned) }

// NumGhosts returns the number of remote 1-hop neighbours this worker
// caches.
func (w *Worker) NumGhosts() int { return len(w.ghostIDs) }

// FPBits returns the current forward bit width (tuned or fixed).
func (w *Worker) FPBits() int {
	w.ecMu.Lock()
	defer w.ecMu.Unlock()
	return w.fpBitsLocked()
}

// fpBitsLocked is FPBits with ecMu already held (handler paths that are
// inside a larger ecMu critical section).
func (w *Worker) fpBitsLocked() int {
	if w.tuner != nil {
		return w.tuner.Bits
	}
	return w.cfg.Opts.FPBits
}

// ResetCompensation discards every piece of error-compensation state the
// worker holds: ReqEC-FP responder bases and changing-rate matrices M_cr,
// requester-side mirrors, ResEC-BP residuals δ, Top-K memories, and the
// Bit-Tuner (reset to the configured starting width). After a respawn or
// rollback this state describes a training trajectory that no longer
// exists; restoring or keeping it would compensate against phantom errors,
// so it is deliberately zeroed on every worker and followed by a forced
// exact-sync round (ForceExactSync) that rebuilds the prediction bases.
func (w *Worker) ResetCompensation() {
	w.ecMu.Lock()
	defer w.ecMu.Unlock()
	for _, layer := range w.fpResp {
		for _, r := range layer {
			if r != nil {
				r.Reset()
			}
		}
	}
	for _, layer := range w.fpReq {
		for _, r := range layer {
			if r != nil {
				r.Reset()
			}
		}
	}
	for _, layer := range w.bpResp {
		for _, r := range layer {
			if r != nil {
				r.Reset()
			}
		}
	}
	for _, layer := range w.topkResp {
		for _, r := range layer {
			if r != nil {
				r.Reset()
			}
		}
	}
	if w.tuner != nil {
		w.tuner = ec.NewBitTuner(w.cfg.Opts.FPBits)
	}
	w.predictedRows.Store(0)
	w.totalRows.Store(0)
}

// ForceExactSync makes every ReqEC-FP responder ship exact rows on its
// next response regardless of trend position — the same full-precision
// round a T_tr boundary forces, used to re-establish prediction bases
// after compensation state was reset.
func (w *Worker) ForceExactSync() {
	w.ecMu.Lock()
	defer w.ecMu.Unlock()
	for _, layer := range w.fpResp {
		for _, r := range layer {
			if r != nil {
				r.ForceExact()
			}
		}
	}
}

// ResetSessionState returns the worker to its just-constructed state for a
// retry or replay: compensation state zeroed, publication stores emptied
// (their epoch tags would otherwise be ahead of the replayed epoch and
// panic), degraded-mode caches and delayed-aggregation caches cleared.
// The layer-1 aggregate survives (as do ghost features not yet folded into
// it) — it is static preprocessing over X and Â, rebuilt only on a genuine
// respawn or view change, which construct a new Worker.
func (w *Worker) ResetSessionState() {
	w.ResetCompensation()
	w.hStore.Reset()
	w.gStore.Reset()
	w.pStore.Reset()
	w.forgetLastGood()
	for l := range w.ghostHCache {
		w.ghostHCache[l] = nil
	}
}

// FetchGhostFeatures pulls the owned feature rows of every ghost vertex
// from its owner and caches them — the paper's first-hop remote-neighbour
// cache (§III-A). Must run after all workers are registered and after any
// handoff import; the traffic is preprocessing, not per-epoch communication.
// The rows are held until the next forward pass folds them into the layer-1
// aggregate, which this call discards so that it is rebuilt from them.
func (w *Worker) FetchGhostFeatures() error {
	w.agg1 = nil
	w.ghostX = tensor.New(len(w.ghostIDs), w.cfg.Feats.Cols)
	req := transport.NewWriter(4)
	req.Int32(int32(w.id))
	calls := make([]transport.Call, len(w.ghostOwner))
	for i, j := range w.ghostOwner {
		calls[i] = transport.Call{Dst: j, Method: MethodGetX, Req: req.Bytes()}
	}
	results := w.cfg.Net.CallMulti(w.id, calls)
	for i, j := range w.ghostOwner {
		res := results[i]
		if res.Err != nil {
			return fmt.Errorf("worker %d: fetch ghost features from %d: %w", w.id, j, res.Err)
		}
		rows, loc := ec.ParseMatrix(res.Resp), w.fetch[0][j].loc
		if rows.Rows != len(loc) || rows.Cols != w.ghostX.Cols {
			return fmt.Errorf("worker %d: ghost features from %d are %dx%d, the pair list wants %dx%d",
				w.id, j, rows.Rows, rows.Cols, len(loc), w.ghostX.Cols)
		}
		for k, slot := range loc {
			copy(w.ghostX.Row(int(slot)), rows.Row(k))
		}
	}
	return nil
}

// EpochReport is one worker's record of one epoch, and the per-worker half
// of the ecgraph.epoch.v1 event line: core.EpochEvent embeds it, so its
// JSON tags are the line's keys. RunEpoch fills what the worker measures;
// the engine fills the node's transport window and modelled link time.
type EpochReport struct {
	Worker       int     `json:"worker"`         // node id
	LocalLossSum float64 `json:"local_loss_sum"` // Σ −log p(label) over owned training vertices
	FPBits       int     `json:"-"`              // bit width in effect after the tuner update

	// CommSeconds is the node's modelled link time for its transport
	// window, the six counters below.
	CommSeconds float64 `json:"comm_seconds"`
	BytesOut    int64   `json:"bytes_out"`
	BytesIn     int64   `json:"bytes_in"`
	Messages    int64   `json:"messages"`
	Retries     int64   `json:"retries"`
	Timeouts    int64   `json:"timeouts"`
	GiveUps     int64   `json:"giveups"`

	// LayerFPBits is the codec width served per embedding layer (index
	// 0 ↔ layer 1); layers nobody requested report the nominal width.
	LayerFPBits []int `json:"layer_fp_bits"`
	// PredictedFraction is the share of responder-served rows this epoch
	// for which the ReqEC-FP predictor won — the Bit-Tuner's input signal.
	PredictedFraction float64 `json:"predicted_fraction"`
	// ResidualL2 holds the ResEC-BP residual norms per layer (index =
	// layer, entries 2..L populated) after epoch t−1's getG, read when the
	// epoch's pull returns; nil when ResEC is off.
	ResidualL2 []float64 `json:"residual_l2,omitempty"`

	// DegradedFetches counts ghost exchanges this epoch that exhausted the
	// transport's retries and were served from the stale cache or the
	// ReqEC-FP prediction instead.
	DegradedFetches int `json:"degraded_fetches"`
	// StragglerSkips counts the subset of DegradedFetches that were served
	// proactively — the supervision layer flagged the peer suspect and the
	// worker skipped the call rather than waiting out retries.
	StragglerSkips int `json:"straggler_skips"`
	// CommWireSeconds is the summed launch-to-completion time of this
	// epoch's ghost-exchange batches; CommBlockedSeconds is how much of it
	// the epoch goroutine actually spent waiting. Their gap is the comm
	// the overlap window hid; OverlapUtilization is that gap as a
	// fraction of wire time.
	CommWireSeconds    float64 `json:"comm_wire_seconds"`
	CommBlockedSeconds float64 `json:"comm_blocked_seconds"`
	OverlapUtilization float64 `json:"overlap_utilization"`
}

// RunEpoch executes iteration t: pull parameters at version t, forward
// propagation (Alg. 1), loss gradient, backward propagation (Alg. 2), push
// gradients. It blocks on peers as needed and returns the local report.
//
// Each layer's ghost exchange is pipelined against its ghost-independent
// compute: issue puts the batch on the wire as soon as the rows it ships
// are published, and collect joins it only when the ghost fold needs them.
// A run whose replies are already in when collect is reached is the
// sequential schedule; only the timing of the wire work moves, never the
// arithmetic or its order.
func (w *Worker) RunEpoch(t int) (EpochReport, error) {
	w.degraded = 0
	w.skips = 0
	w.commWire = 0
	w.commBlocked = 0
	flat, err := w.cfg.PS.Pull(t)
	if err != nil {
		return EpochReport{}, fmt.Errorf("worker %d: pull: %w", w.id, err)
	}
	// The residuals are read here, where the pull's barrier has ordered
	// every peer's getG(t−1) before this point and no getG(t) can be served
	// until this worker's own backward publishes G.
	var residual []float64
	if w.cfg.Opts.BPScheme == SchemeEC {
		residual = w.ResidualNorms()
	}
	model := w.cfg.Model
	model.SetFlatParams(flat)
	L := model.NumLayers()

	// ---- Forward propagation ----
	if err := w.forward(t, L); err != nil {
		return EpochReport{}, err
	}

	// ---- Loss gradient over owned training vertices ----
	report := EpochReport{Worker: w.id, ResidualL2: residual}
	logits := w.ownH[L]
	g := tensor.New(logits.Rows, logits.Cols)
	if w.cfg.NumTrainGlobal > 0 {
		inv := float32(1 / float64(w.cfg.NumTrainGlobal))
		for i := 0; i < logits.Rows; i++ {
			if !w.trainMask[i] {
				continue
			}
			row := logits.Row(i)
			mx := row[0]
			for _, v := range row[1:] {
				if v > mx {
					mx = v
				}
			}
			var sum float64
			for _, v := range row {
				sum += math.Exp(float64(v - mx))
			}
			logZ := float64(mx) + math.Log(sum)
			y := w.labels[i]
			report.LocalLossSum += logZ - float64(row[y])
			grow := g.Row(i)
			for j, v := range row {
				p := float32(math.Exp(float64(v)-logZ)) * inv
				if j == y {
					p -= inv
				}
				grow[j] = p
			}
		}
	}

	// ---- Backward propagation ----
	grads := nn.NewGradients(model)
	if err := w.backward(t, L, g, grads); err != nil {
		return EpochReport{}, err
	}

	if err := w.cfg.PS.Push(t, grads.Flatten()); err != nil {
		return EpochReport{}, fmt.Errorf("worker %d: push: %w", w.id, err)
	}

	// Bit-Tuner update from this epoch's responder-side selector outcomes.
	// The per-epoch counters are drained whether or not the tuner runs, so
	// PredictedFraction always describes this epoch alone.
	w.ecMu.Lock()
	total := w.totalRows.Swap(0)
	predicted := w.predictedRows.Swap(0)
	if w.tuner != nil && total > 0 {
		before := w.tuner.Bits
		w.tuner.Update(float64(predicted) / float64(total))
		switch {
		case w.tuner.Bits > before:
			w.obs.tunerUp.Inc()
		case w.tuner.Bits < before:
			w.obs.tunerDown.Inc()
		default:
			w.obs.tunerHold.Inc()
		}
	}
	report.FPBits = w.fpBitsLocked()
	w.ecMu.Unlock()
	if total > 0 {
		report.PredictedFraction = float64(predicted) / float64(total)
	}
	report.LayerFPBits = w.layerBitsSnapshot(L, report.FPBits)
	w.finishEpochObs(&report)
	return report, nil
}

// forward runs the forward pass: as soon as layer l's owned rows land in
// hStore (inside forwardLayer), the getH(l) batch for layer l+1 is issued,
// so its wire time is hidden behind layer l+1's ghost-independent compute.
// At steady state exactly one exchange is in flight.
func (w *Worker) forward(t, L int) error {
	var pend *pendingGhost
	s := w.x
	for l := 1; l <= L; l++ {
		var err error
		if w.cfg.Model.Kind == nn.KindGAT {
			err = w.attendLayer(l, t, pend)
		} else {
			s, err = w.forwardLayer(l, t, s, pend)
		}
		if err != nil {
			return err
		}
		if l < L {
			pend = w.issue(dirH, l, t)
		}
	}
	return nil
}

// transformFirst reports whether layer l aggregates P^l = H^{l−1}W^l rather
// than H^{l−1} (DESIGN.md §10, "Narrow side on the exact wire" and "… on
// the compensated wire"): the layer shrinks (nn.Model.TransformsFirst), its
// rows are current — no delayed refresh, whose stale rows would pair old
// embeddings with the current W — and both its exchanges run one scheme,
// raw or EC. ∇W is then taken from Â g and reads the ghost g rows that
// (ÂH)ᵀg never touches, so the backward must compensate its own error: the
// single-direction ablations (a raw side beside a lossy one), Cp and Top-K
// keep H and their bits. Layer 1 keeps its retained ÂX.
func (w *Worker) transformFirst(l int) bool {
	m, o := w.cfg.Model, w.cfg.Opts
	return l >= 2 && l <= m.NumLayers() && m.TransformsFirst(l) && o.DelayRounds < 2 &&
		o.FPScheme == o.BPScheme && (o.FPScheme == SchemeRaw || o.FPScheme == SchemeEC)
}

// minGradBits is the narrowest ResEC-BP getG a transform-first layer sends
// (respondBP): its ghost g rows feed ∇W directly. Over 30 seeds of
// serve-online's shape (100 → 64 → 16, EC-2) a 2-bit getG cost 0.07 of test
// accuracy on average and 0.12 at worst; 4 bits held it, and so did 8 bits,
// which cost train-fold 7 % more wire than shipping H (EXPERIMENTS.md,
// "Narrow side on the compensated wire").
const minGradBits = 4

// forwardLayer computes layer l from s, its owned aggregation source —
// H^{l-1}, or P^l where the layer transforms first — collecting s's ghost
// rows from the getH(l−1) exchange pend, and returns the rows it publishes
// for getH(l): H^l, or P^{l+1} = H^l·W^{l+1} where layer l+1 transforms
// first, which is then also that layer's source. Everything before the
// collect is ghost-independent — the owned-column SpMM, the owned ·W and
// H·WSelf matmuls — and is the work done while the exchange is on the wire.
// Layer 1 has no exchange and no SpMM either after the first epoch: its
// aggregate is retained in agg1 and only the ·W products run.
func (w *Worker) forwardLayer(l, t int, s *tensor.Matrix, pend *pendingGhost) (*tensor.Matrix, error) {
	layer := w.cfg.Model.Layers[l-1]
	h := w.ownH[l-1]
	tf := w.transformFirst(l)
	// Everything carved from the arena last layer is dead (folded into that
	// layer's outputs), so the slab is reclaimed wholesale here.
	w.scratch.Reset()

	// Tracing stays off the arithmetic: the nil check is the only cost
	// when disabled, and time.Now never influences what gets computed.
	tr := w.obs.tracer
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	var ah, z *tensor.Matrix // ah stays nil at layer 1 (agg1 holds it) and where s is P^l
	switch {
	case l == 1:
		if w.agg1 == nil {
			w.agg1 = w.buildLayer1()
		}
		z = w.agg1.interiorTimes(layer.W)
	case tf:
		z = tensor.New(len(w.owned), s.Cols)
		w.adj.SpMMOwnedInto(s, z)
	default:
		ah = tensor.New(len(w.owned), s.Cols)
		w.adj.SpMMOwnedInto(s, ah)
		z = ah.MatMul(layer.W)
	}
	var zSelf *tensor.Matrix
	if layer.WSelf != nil {
		zSelf = h.MatMul(layer.WSelf)
	}
	if tr != nil {
		now := time.Now()
		tr.Span(w.obs.fpSpans[l].owned, "fp", 1+w.id, 0, t0, now.Sub(t0))
		t0 = now
	}

	if l == 1 {
		w.agg1.foldBoundary(z, layer.W)
	} else {
		ghost, err := w.collect(dirH, pend, l-1, t)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			now := time.Now()
			tr.Span(w.obs.fpSpans[l].collect, "fp", 1+w.id, 0, t0, now.Sub(t0))
			t0 = now
		}
		// Compact fold: the ghost aggregation only touches boundary rows, so
		// its dense transform (if any) runs over len(BoundaryRows()) rows and
		// is scattered back — the fold's cost tracks the partition's cut, not
		// its size. Its output and strip scratch come from the layer arena.
		if sGhost := w.adj.SpMMGhostCompactPacked(ghost, w.scratch); sGhost != nil {
			if tf {
				z.AddRowsAt(w.adj.BoundaryRows(), sGhost)
			} else {
				z.AddRowsAt(w.adj.BoundaryRows(), sGhost.MatMul(layer.W))
				ah.AddRowsAt(w.adj.BoundaryRows(), sGhost)
			}
		}
	}
	if zSelf != nil {
		z.AddInPlace(zSelf)
	}
	z.AddRowVector(layer.Bias)

	w.ah[l] = ah
	w.z[l] = z
	hOut := z
	if l < w.cfg.Model.NumLayers() {
		hOut = z.ReLU()
	}
	w.ownH[l] = hOut
	pub := hOut
	if w.transformFirst(l + 1) {
		pub = hOut.MatMul(w.cfg.Model.Layers[l].W)
	}
	w.hStore.Put(l, t, pub)
	if tr != nil {
		tr.Span(w.obs.fpSpans[l].fold, "fp", 1+w.id, 0, t0, time.Since(t0))
	}
	return pub, nil
}

// backward runs the backward pass: the getG(l) batch is issued the moment
// G^l lands in gStore, so the wire time is hidden behind the layer's
// weight-gradient matmuls and the owned-column aggregation of g.
func (w *Worker) backward(t, L int, g *tensor.Matrix, grads *nn.Gradients) error {
	if w.cfg.Model.Kind == nn.KindGAT {
		return w.backwardGAT(t, L, g, grads)
	}
	for l := L; l >= 1; l-- {
		var pend *pendingGhost
		if l >= 2 {
			w.gStore.Put(l, t, g)
			pend = w.issue(dirG, l, t)
		}
		gPrev, err := w.backwardLayer(l, t, g, grads, pend)
		if err != nil {
			return err
		}
		g = gPrev
	}
	return nil
}

// backwardLayer computes layer l's weight gradients from g (the owned G^l
// rows) and, for l ≥ 2, propagates g to layer l−1 using the ghost G^l rows
// collected from the getG(l) exchange pend. The weight-gradient matmuls and
// the owned-column aggregation run before the collect — the overlap window.
// A layer that transforms first kept no ÂH, so its ∇W = H^{l−1ᵀ}(Â g) is
// taken from the Â g that gPrev needs anyway: the owned part inside the
// window, the boundary rows' ghost part after the collect. It is formed as
// ∇Wᵀ = (Â g)ᵀH^{l−1} and transposed once: that way the kernel's rows are
// H^{l−1}'s, Dims[l−1] wide, instead of ∇W's Dims[l] — the narrower width,
// which can be under one vector.
func (w *Worker) backwardLayer(l, t int, g *tensor.Matrix, grads *nn.Gradients, pend *pendingGhost) (*tensor.Matrix, error) {
	layer := w.cfg.Model.Layers[l-1]
	tf := w.transformFirst(l)
	w.scratch.Reset()
	tr := w.obs.tracer
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	switch {
	case l == 1:
		grads.Layers[0].W = w.agg1.ah.tMatMul(g)
	case !tf:
		grads.Layers[l-1].W = w.ah[l].TMatMul(g)
	}
	if layer.WSelf != nil {
		grads.Layers[l-1].WSelf = w.ownH[l-1].TMatMul(g)
	}
	grads.Layers[l-1].Bias = g.ColSums()
	if l == 1 {
		if tr != nil {
			tr.Span(w.obs.bpSpans[l].owned, "bp", 1+w.id, 0, t0, time.Since(t0))
		}
		return nil, nil
	}

	ag := tensor.New(len(w.owned), g.Cols)
	w.adj.SpMMOwnedInto(g, ag)
	var gradWT, hB *tensor.Matrix
	if tf {
		gradWT, hB = ag.TMatMul(w.ownH[l-1]), w.boundaryRows(w.ownH[l-1])
	}
	gPrev := ag.MatMulT(layer.W)
	var gSelf *tensor.Matrix
	if layer.WSelf != nil {
		gSelf = g.MatMulT(layer.WSelf)
	}
	if tr != nil {
		now := time.Now()
		tr.Span(w.obs.bpSpans[l].owned, "bp", 1+w.id, 0, t0, now.Sub(t0))
		t0 = now
	}

	ghost, err := w.collect(dirG, pend, l, t)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		now := time.Now()
		tr.Span(w.obs.bpSpans[l].collect, "bp", 1+w.id, 0, t0, now.Sub(t0))
		t0 = now
	}
	if agGhost := w.adj.SpMMGhostCompactPacked(ghost, w.scratch); agGhost != nil {
		gPrev.AddRowsAt(w.adj.BoundaryRows(), agGhost.MatMulT(layer.W))
		if tf {
			gradWT.AddInPlace(agGhost.TMatMul(hB))
		}
	}
	if tf {
		grads.Layers[l-1].W = gradWT.T()
	}
	if gSelf != nil {
		gPrev.AddInPlace(gSelf)
	}
	out := gPrev.ReLUBackwardInPlace(w.z[l-1])
	if tr != nil {
		tr.Span(w.obs.bpSpans[l].fold, "bp", 1+w.id, 0, t0, time.Since(t0))
	}
	return out, nil
}

// boundaryRows copies m's rows at BoundaryRows() into the layer arena, row
// k ↔ BoundaryRows()[k], the rows of a compact fold's output.
func (w *Worker) boundaryRows(m *tensor.Matrix) *tensor.Matrix {
	b := w.adj.BoundaryRows()
	out := w.scratch.Matrix(len(b), m.Cols)
	for k, i := range b {
		copy(out.Row(k), m.Row(int(i)))
	}
	return out
}

// Logits returns the owned vertex ids and their final-layer logits from the
// most recent epoch; the engine evaluates them in place after RunEpoch.
func (w *Worker) Logits(epoch int) ([]int32, *tensor.Matrix) {
	L := w.cfg.Model.NumLayers()
	return w.owned, w.hStore.Wait(L, epoch)
}
