package serve

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"ecgraph/internal/ec"
	"ecgraph/internal/graph"
	"ecgraph/internal/nn"
	"ecgraph/internal/tensor"
	"ecgraph/internal/transport"
)

// Shard protocol methods. The front coordinates version preparation with
// install/prep/drop; shards fetch each other's rows with rows; batch is
// the per-request inference call.
const (
	methodInstall = "sv.install"
	methodPrep    = "sv.prep"
	methodRows    = "sv.rows"
	methodBatch   = "sv.batch"
	methodDrop    = "sv.drop"
)

const (
	phaseTransform = byte(0)
	phaseAggregate = byte(1)
)

// prepReq encodes one sv.prep request.
func prepReq(version uint32, layer int, phase byte) []byte {
	w := transport.GetWriter(8)
	w.Uint32(version)
	w.Byte(byte(layer))
	w.Byte(phase)
	req := append([]byte(nil), w.Bytes()...)
	w.Release()
	return req
}

// versionState is one installed model version on one shard. h[l] holds the
// owned rows of the post-activation H^l (h[0] = owned features); s[l]
// (1-based) holds the owned rows of layer l's aggregation source — H^{l-1}W
// when the layer shrinks the dimension first, H^{l-1} otherwise, mirroring
// nn.Model.Forward's dim-order branch exactly. After preparation only s[L]
// (what request-time aggregation reads) and h[L-1] (the SAGE self term)
// remain; the rest is freed.
type versionState struct {
	model *nn.Model
	h     []*tensor.Matrix // len L, owned rows
	s     []*tensor.Matrix // len L+1, s[0] unused
}

// branchA reports whether layer l (1-based) transforms before aggregating
// (the §III-A message-aggregating optimisation: in-dim > out-dim).
func (st *versionState) branchA(l int) bool {
	return st.model.Dims[l-1] > st.model.Dims[l]
}

// shard is one serving replica: it owns a vertex partition, prepares
// per-version layer state under the front's barrier protocol, serves its
// owned rows to peers, and answers batch inference over its owned
// vertices.
type shard struct {
	id  int
	cfg Config
	adj *graph.NormAdjacency
	net transport.Network

	owner     []int32         // vertex → shard
	owned     []int32         // owned global ids, ascending
	localIdx  map[int32]int32 // global id → row in owned matrices
	ownedFeat *tensor.Matrix  // owned rows of the feature matrix

	// Ghost topology, fixed at construction: every remote vertex any
	// owned row aggregates from, with a dense slot numbering (ascending
	// global id) and per-peer need lists for the preparation exchange.
	ghostIDs  []int32
	ghostSlot map[int32]int32
	needs     map[int][]int32

	// prepCSR is the shard's slice of the global operator in compact
	// columns (owned rows local-indexed, ghosts NOwned+slot), built once
	// and reused by every layer of every version's preparation; request
	// batches copy their rows out of it.
	prepCSR *graph.LocalCSR

	cache   *ghostCache
	metrics *serveMetrics

	mu       sync.RWMutex
	versions map[uint32]*versionState
}

func newShard(id int, cfg Config, adj *graph.NormAdjacency, owner []int32, net transport.Network) *shard {
	sh := &shard{
		id:        id,
		cfg:       cfg,
		adj:       adj,
		net:       net,
		owner:     owner,
		localIdx:  map[int32]int32{},
		ghostSlot: map[int32]int32{},
		needs:     map[int][]int32{},
		cache:     newGhostCache(cfg.CacheTTL, cfg.CacheMaxStale, cfg.Clock),
		versions:  map[uint32]*versionState{},
	}
	for v := 0; v < len(owner); v++ {
		if owner[v] == int32(id) {
			sh.localIdx[int32(v)] = int32(len(sh.owned))
			sh.owned = append(sh.owned, int32(v))
		}
	}
	ghostSet := map[int32]struct{}{}
	for _, v := range sh.owned {
		for p := adj.RowPtr[v]; p < adj.RowPtr[v+1]; p++ {
			c := adj.ColIdx[p]
			if owner[c] != int32(id) {
				ghostSet[c] = struct{}{}
			}
		}
	}
	for g := range ghostSet {
		sh.ghostIDs = append(sh.ghostIDs, g)
	}
	sort.Slice(sh.ghostIDs, func(i, j int) bool { return sh.ghostIDs[i] < sh.ghostIDs[j] })
	for slot, g := range sh.ghostIDs {
		sh.ghostSlot[g] = int32(slot)
		peer := int(owner[g])
		sh.needs[peer] = append(sh.needs[peer], g)
	}

	nOwned := len(sh.owned)
	rowPtr := make([]int32, nOwned+1)
	var colIdx []int32
	var val []float32
	for i, v := range sh.owned {
		for p := adj.RowPtr[v]; p < adj.RowPtr[v+1]; p++ {
			c := adj.ColIdx[p]
			if owner[c] == int32(id) {
				colIdx = append(colIdx, sh.localIdx[c])
			} else {
				colIdx = append(colIdx, int32(nOwned)+sh.ghostSlot[c])
			}
			val = append(val, adj.Val[p])
		}
		rowPtr[i+1] = int32(len(colIdx))
	}
	sh.prepCSR = graph.NewLocalCSR(nOwned, rowPtr, colIdx, val)

	rows := make([]int, nOwned)
	for i, v := range sh.owned {
		rows[i] = int(v)
	}
	sh.ownedFeat = cfg.Features.GatherRows(rows)
	return sh
}

// handle is the shard's transport handler.
func (sh *shard) handle(method string, req []byte) ([]byte, error) {
	r := transport.NewReader(req)
	switch method {
	case methodInstall:
		return nil, sh.install(r.Uint32(), r.Uint8s())
	case methodPrep:
		return nil, sh.prep(r.Uint32(), int(r.Byte()), r.Byte())
	case methodRows:
		return sh.rows(r.Uint32(), int(r.Byte()), r.Int32s())
	case methodBatch:
		return sh.batch(r.Uint32(), r.Int32s())
	case methodDrop:
		sh.drop(r.Uint32())
		return nil, nil
	default:
		return nil, fmt.Errorf("serve: shard %d: unknown method %q", sh.id, method)
	}
}

func (sh *shard) version(v uint32) (*versionState, error) {
	sh.mu.RLock()
	st := sh.versions[v]
	sh.mu.RUnlock()
	if st == nil {
		return nil, fmt.Errorf("serve: shard %d: unknown version %d", sh.id, v)
	}
	return st, nil
}

// install parses the serialised model and allocates the version's state.
func (sh *shard) install(v uint32, modelBytes []byte) error {
	m, err := nn.Load(bytes.NewReader(modelBytes))
	if err != nil {
		return fmt.Errorf("serve: shard %d: decode model: %w", sh.id, err)
	}
	L := m.NumLayers()
	st := &versionState{
		model: m,
		h:     make([]*tensor.Matrix, L),
		s:     make([]*tensor.Matrix, L+1),
	}
	st.h[0] = sh.ownedFeat
	sh.mu.Lock()
	sh.versions[v] = st
	sh.mu.Unlock()
	return nil
}

// prep runs one phase of one layer of the preparation protocol. The front
// guarantees the barrier: transform(l) on every shard completes before any
// aggregate(l) starts, so peer fetches always find freshly transformed
// rows; and aggregate(l) everywhere precedes transform(l+1), so freeing
// earlier layers in the final transform is safe.
func (sh *shard) prep(v uint32, l int, phase byte) error {
	st, err := sh.version(v)
	if err != nil {
		return err
	}
	L := st.model.NumLayers()
	if l < 1 || l > L {
		return fmt.Errorf("serve: shard %d: prep layer %d of %d", sh.id, l, L)
	}
	switch phase {
	case phaseTransform:
		if st.branchA(l) {
			st.s[l] = st.h[l-1].MatMul(st.model.Layers[l-1].W)
		} else {
			st.s[l] = st.h[l-1]
		}
		if l == L {
			// Preparation is complete: request-time aggregation reads
			// only s[L] and (for the SAGE self term) h[L-1].
			for i := 0; i < L-1; i++ {
				st.h[i] = nil
			}
			for i := 1; i < L; i++ {
				st.s[i] = nil
			}
		}
		return nil
	case phaseAggregate:
		if l == L {
			return fmt.Errorf("serve: shard %d: final layer aggregates per request", sh.id)
		}
		return sh.aggregate(v, l, st)
	default:
		return fmt.Errorf("serve: shard %d: unknown prep phase %d", sh.id, phase)
	}
}

// aggregate computes the owned rows of H^l from s[l]: fetch the ghost rows
// from their owners, run the split owned/ghost kernels over the shard's
// slice of Â, apply the layer's dense transform, self term and bias, and
// ReLU (aggregate is never called for the final layer).
func (sh *shard) aggregate(v uint32, l int, st *versionState) error {
	ghost, err := sh.fetchPrepGhost(v, l, st.s[l].Cols)
	if err != nil {
		return err
	}
	agg := tensor.New(len(sh.owned), st.s[l].Cols)
	sh.prepCSR.SpMMOwnedInto(st.s[l], agg)
	sh.prepCSR.SpMMGhostInto(ghost, agg)
	layer := st.model.Layers[l-1]
	z := agg
	if !st.branchA(l) {
		z = agg.MatMul(layer.W)
	}
	if layer.WSelf != nil {
		z.AddInPlace(st.h[l-1].MatMul(layer.WSelf))
	}
	z.AddRowVector(layer.Bias)
	st.h[l] = z.ReLU()
	return nil
}

// fetchPrepGhost gathers every ghost row of s[l] from the owning peers.
// Preparation exchanges raw rows and treats any peer failure as fatal —
// version state must be exact, degraded rows are a request-time-only
// concession.
func (sh *shard) fetchPrepGhost(v uint32, l, cols int) (*tensor.Matrix, error) {
	if len(sh.ghostIDs) == 0 {
		return nil, nil
	}
	ghost := tensor.New(len(sh.ghostIDs), cols)
	calls := make([]transport.Call, 0, len(sh.needs))
	peers := make([]int, 0, len(sh.needs))
	for peer, ids := range sh.needs {
		w := transport.GetWriter(9 + 4*len(ids))
		w.Uint32(v)
		w.Byte(byte(l))
		w.Int32s(ids)
		calls = append(calls, transport.Call{Dst: peer, Method: methodRows, Req: append([]byte(nil), w.Bytes()...)})
		peers = append(peers, peer)
		w.Release()
	}
	for ci, res := range sh.net.CallMulti(sh.id, calls) {
		peer := peers[ci]
		if res.Err != nil {
			return nil, fmt.Errorf("serve: shard %d: prep fetch from %d: %w", sh.id, peer, res.Err)
		}
		rows := ec.ParseMatrix(res.Resp)
		for i, id := range sh.needs[peer] {
			ghost.SetRow(int(sh.ghostSlot[id]), rows.Row(i))
		}
	}
	return ghost, nil
}

// rows serves owned rows of s[layer] to a peer (preparation) or to a
// serving replica's ghost cache (layer L at request time). Final-layer
// rows optionally ride the quantised ec wire format; preparation always
// gets raw rows.
func (sh *shard) rows(v uint32, l int, ids []int32) ([]byte, error) {
	st, err := sh.version(v)
	if err != nil {
		return nil, err
	}
	if l < 1 || l > st.model.NumLayers() || st.s[l] == nil {
		return nil, fmt.Errorf("serve: shard %d: no rows for version %d layer %d", sh.id, v, l)
	}
	rows := make([]int, len(ids))
	for i, id := range ids {
		li, ok := sh.localIdx[id]
		if !ok {
			return nil, fmt.Errorf("serve: shard %d: vertex %d not owned", sh.id, id)
		}
		rows[i] = int(li)
	}
	sub := st.s[l].GatherRows(rows)
	if l == st.model.NumLayers() && sh.cfg.WireBits < 32 {
		return ec.RespondCompressOnly(sub, sh.cfg.WireBits), nil
	}
	return ec.RespondRaw(sub), nil
}

// drop frees a version's state and its cached ghost rows.
func (sh *shard) drop(v uint32) {
	sh.mu.Lock()
	delete(sh.versions, v)
	sh.mu.Unlock()
	sh.cache.dropVersion(v)
}

// batch answers inference for a batch of owned vertices: build the batch's
// compact CSR slice, aggregate s[L] rows through the split kernels (ghost
// rows via the TTL cache), apply the final dense transform, and return
// per-vertex logits with an ok flag each.
func (sh *shard) batch(v uint32, ids []int32) ([]byte, error) {
	st, err := sh.version(v)
	if err != nil {
		return nil, err
	}
	logits, flags, err := sh.batchLogits(v, st, ids)
	if err != nil {
		return nil, err
	}
	w := transport.GetWriter(8 + len(flags) + 4*len(logits.Data))
	w.Uint8s(flags)
	w.Matrix(logits)
	resp := append([]byte(nil), w.Bytes()...)
	w.Release()
	return resp, nil
}

func (sh *shard) batchLogits(v uint32, st *versionState, ids []int32) (*tensor.Matrix, []byte, error) {
	L := st.model.NumLayers()
	src := st.s[L]
	if src == nil {
		return nil, nil, fmt.Errorf("serve: shard %d: version %d not prepared", sh.id, v)
	}

	// First pass: copy the batch's rows out of the preparation CSR and
	// assign batch-compact column slots. Owned columns get their first-seen
	// order (encoded as-is); ghosts are encoded ^(static ghost slot) until
	// the owned count is final and their batch slots are numbered.
	prep := sh.prepCSR
	nBatch := len(ids)
	rowPtr := make([]int32, nBatch+1)
	var colIdx []int32
	var val []float32
	ownedSlot := map[int32]int32{}
	var ownedRows []int                           // batch owned slot → local row in src
	batchGhost := make([]int32, len(sh.ghostIDs)) // static ghost slot → 1 once seen, then its batch slot
	var usedGhosts []int32                        // static ghost slots in the batch
	selfRows := make([]int, nBatch)
	for bi, id := range ids {
		li, ok := sh.localIdx[id]
		if !ok {
			return nil, nil, fmt.Errorf("serve: shard %d: vertex %d not owned", sh.id, id)
		}
		selfRows[bi] = int(li)
		for p := prep.RowPtr[li]; p < prep.RowPtr[li+1]; p++ {
			c := prep.ColIdx[p]
			if g := c - int32(prep.NOwned); g < 0 {
				slot, ok := ownedSlot[c]
				if !ok {
					slot = int32(len(ownedRows))
					ownedSlot[c] = slot
					ownedRows = append(ownedRows, int(c))
				}
				colIdx = append(colIdx, slot)
			} else {
				if batchGhost[g] == 0 {
					batchGhost[g] = 1
					usedGhosts = append(usedGhosts, g)
				}
				colIdx = append(colIdx, ^g)
			}
			val = append(val, prep.Val[p])
		}
		rowPtr[bi+1] = int32(len(colIdx))
	}
	// Batch ghost slots in static-slot order, which is ascending global id:
	// the ghost fold sums a row's terms in slot order, so this keeps every
	// row's sum — owned terms in adjacency order, then ghosts by id, as in
	// the preparation CSR — independent of which vertices share its batch.
	slices.Sort(usedGhosts)
	ghostIDs := make([]int32, len(usedGhosts))
	for slot, g := range usedGhosts {
		batchGhost[g] = int32(slot)
		ghostIDs[slot] = sh.ghostIDs[g]
	}
	nOwned := int32(len(ownedRows))
	for i, c := range colIdx {
		if c < 0 {
			colIdx[i] = nOwned + batchGhost[^c]
		}
	}

	csr := graph.NewLocalCSR(int(nOwned), rowPtr, colIdx, val)
	agg := tensor.New(nBatch, src.Cols)
	csr.SpMMOwnedInto(src.GatherRows(ownedRows), agg)
	var failed map[int32]bool
	if sh.cfg.PackedSpMM {
		// Quantised-domain aggregation: cached rows that arrived packed
		// (WireBits < 32) feed the fold directly, dequantised on register —
		// bitwise what decode-then-SpMMGhostInto computes.
		var ghost *graph.GhostOperand
		ghost, failed = sh.resolveGhostsOp(v, L, ghostIDs, src.Cols)
		csr.SpMMGhostPacked(ghost, agg)
	} else {
		var ghost *tensor.Matrix
		ghost, failed = sh.resolveGhosts(v, L, ghostIDs, src.Cols)
		csr.SpMMGhostInto(ghost, agg)
	}

	layer := st.model.Layers[L-1]
	logits := agg
	if !st.branchA(L) {
		logits = agg.MatMul(layer.W)
	}
	if layer.WSelf != nil {
		logits.AddInPlace(st.h[L-1].GatherRows(selfRows).MatMul(layer.WSelf))
	}
	logits.AddRowVector(layer.Bias)

	flags := make([]byte, nBatch)
	for bi, id := range ids {
		flags[bi] = 1
		if len(failed) == 0 {
			continue
		}
		for p := sh.adj.RowPtr[id]; p < sh.adj.RowPtr[id+1]; p++ {
			if failed[sh.adj.ColIdx[p]] {
				flags[bi] = 0
				row := logits.Row(bi)
				for j := range row {
					row[j] = 0
				}
				break
			}
		}
	}
	return logits, flags, nil
}

// resolveGhosts fills the batch's ghost matrix (rows in ghostIDs order)
// from the TTL cache, refetching misses from the owning peers. A failed
// refetch falls back to the last-good row within the staleness bound
// (served degraded); vertices beyond every bound land in the failed set
// and their dependents answer per-vertex errors.
func (sh *shard) resolveGhosts(v uint32, l int, ghostIDs []int32, cols int) (*tensor.Matrix, map[int32]bool) {
	if len(ghostIDs) == 0 {
		return nil, nil
	}
	ghost := tensor.New(len(ghostIDs), cols)
	type pending struct {
		id       int32
		slot     int32
		lastGood []float32
		age      time.Duration
	}
	byPeer := map[int][]pending{}
	for slot, id := range ghostIDs {
		fresh, lastGood, age := sh.cache.lookup(v, id)
		if fresh != nil {
			sh.metrics.cacheHit.Inc()
			ghost.SetRow(slot, fresh)
			continue
		}
		sh.metrics.cacheMiss.Inc()
		peer := int(sh.owner[id])
		byPeer[peer] = append(byPeer[peer], pending{id: id, slot: int32(slot), lastGood: lastGood, age: age})
	}
	if len(byPeer) == 0 {
		return ghost, nil
	}
	calls := make([]transport.Call, 0, len(byPeer))
	peers := make([]int, 0, len(byPeer))
	for peer, pend := range byPeer {
		ids := make([]int32, len(pend))
		for i, p := range pend {
			ids[i] = p.id
		}
		w := transport.GetWriter(9 + 4*len(ids))
		w.Uint32(v)
		w.Byte(byte(l))
		w.Int32s(ids)
		calls = append(calls, transport.Call{Dst: peer, Method: methodRows, Req: append([]byte(nil), w.Bytes()...)})
		peers = append(peers, peer)
		w.Release()
	}
	failed := map[int32]bool{}
	for ci, res := range sh.net.CallMulti(sh.id, calls) {
		pend := byPeer[peers[ci]]
		if res.Err == nil {
			rows := ec.ParseMatrix(res.Resp)
			for i, p := range pend {
				row := append([]float32(nil), rows.Row(i)...)
				sh.cache.put(v, p.id, row)
				ghost.SetRow(int(p.slot), row)
			}
			continue
		}
		// Degraded fetch: the peer is down or slow. Serve the last-good
		// row if it is within the staleness bound, fail the vertex
		// otherwise — same policy the training exchange applies to
		// ghost embeddings (DESIGN.md §12).
		sh.metrics.cacheDegraded.Inc()
		for _, p := range pend {
			if sh.cache.usableStale(p.lastGood, p.age) {
				sh.metrics.cacheStale.Inc()
				ghost.SetRow(int(p.slot), p.lastGood)
			} else {
				failed[p.id] = true
			}
		}
	}
	return ghost, failed
}

// resolveGhostsOp is resolveGhosts for the packed batch path: cache hits
// and refetches that arrive quantised stay in wire form inside the hybrid
// operand (and in the cache); raw rows and stale fallbacks land dense.
func (sh *shard) resolveGhostsOp(v uint32, l int, ghostIDs []int32, cols int) (*graph.GhostOperand, map[int32]bool) {
	if len(ghostIDs) == 0 {
		return nil, nil
	}
	ghost := graph.NewGhostHybrid(len(ghostIDs), cols)
	type pending struct {
		id       int32
		slot     int32
		lastGood *cacheEntry
		age      time.Duration
	}
	byPeer := map[int][]pending{}
	for slot, id := range ghostIDs {
		fresh, lastGood, age := sh.cache.lookupPacked(v, id)
		if fresh != nil {
			sh.metrics.cacheHit.Inc()
			if fresh.pb != nil {
				ghost.SetRowPacked(slot, fresh.pb, fresh.pr)
			} else {
				ghost.SetRowDense(slot, fresh.row)
			}
			continue
		}
		sh.metrics.cacheMiss.Inc()
		peer := int(sh.owner[id])
		byPeer[peer] = append(byPeer[peer], pending{id: id, slot: int32(slot), lastGood: lastGood, age: age})
	}
	if len(byPeer) == 0 {
		return ghost, nil
	}
	calls := make([]transport.Call, 0, len(byPeer))
	peers := make([]int, 0, len(byPeer))
	for peer, pend := range byPeer {
		ids := make([]int32, len(pend))
		for i, p := range pend {
			ids[i] = p.id
		}
		w := transport.GetWriter(9 + 4*len(ids))
		w.Uint32(v)
		w.Byte(byte(l))
		w.Int32s(ids)
		calls = append(calls, transport.Call{Dst: peer, Method: methodRows, Req: append([]byte(nil), w.Bytes()...)})
		peers = append(peers, peer)
		w.Release()
	}
	failed := map[int32]bool{}
	for ci, res := range sh.net.CallMulti(sh.id, calls) {
		pend := byPeer[peers[ci]]
		if res.Err == nil {
			rows, blk := ec.ParsePacked(res.Resp)
			for i, p := range pend {
				if blk != nil {
					sh.cache.putPacked(v, p.id, blk, i)
					ghost.SetRowPacked(int(p.slot), blk, i)
				} else {
					row := append([]float32(nil), rows.Row(i)...)
					sh.cache.put(v, p.id, row)
					ghost.SetRowDense(int(p.slot), row)
				}
			}
			continue
		}
		// Same degraded policy as resolveGhosts; a packed last-good entry
		// materialises per use (fallbacks are cold).
		sh.metrics.cacheDegraded.Inc()
		for _, p := range pend {
			if sh.cache.usableStaleEntry(p.lastGood, p.age) {
				sh.metrics.cacheStale.Inc()
				ghost.SetRowDense(int(p.slot), p.lastGood.denseRow())
			} else {
				failed[p.id] = true
			}
		}
	}
	return ghost, failed
}
