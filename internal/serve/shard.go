package serve

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"ecgraph/internal/ec"
	"ecgraph/internal/graph"
	"ecgraph/internal/nn"
	"ecgraph/internal/tensor"
	"ecgraph/internal/transport"
)

// Shard protocol methods. The front coordinates version preparation with
// install/prep/drop, during which shards fetch each other's rows with rows;
// batch is the per-request inference call.
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
// owned rows of the post-activation H^l (h[0] = owned features). hcat[l]
// (1-based) holds layer l's aggregation source S^l — H^{l-1}W when the layer
// transforms first (nn.Model.TransformsFirst), H^{l-1} otherwise — with the
// owned rows stacked over the ghost rows, the operand prepCSR's compact
// columns index. After preparation only hcat[L] (what request-time
// aggregation reads) and h[L-1] (the SAGE self term) remain; the rest is
// freed.
type versionState struct {
	model *nn.Model
	h     []*tensor.Matrix // len L, owned rows
	hcat  []*tensor.Matrix // len L+1, hcat[0] unused
}

// shard is one serving replica: it owns a vertex partition, prepares
// per-version layer state under the front's barrier protocol, serves its
// owned rows to peers while they prepare, and answers batch inference over
// its owned vertices.
type shard struct {
	id  int
	net transport.Network

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
	// and reused by every layer of every version, request batches included.
	prepCSR *graph.LocalCSR

	mu       sync.RWMutex
	versions map[uint32]*versionState
}

func newShard(id int, cfg Config, adj *graph.NormAdjacency, owner []int32, net transport.Network) *shard {
	sh := &shard{
		id:        id,
		net:       net,
		localIdx:  map[int32]int32{},
		ghostSlot: map[int32]int32{},
		needs:     map[int][]int32{},
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
		hcat:  make([]*tensor.Matrix, L+1),
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
// earlier layers in the final transform is safe. The final layer's
// aggregate phase only installs its ghost rows: the aggregation itself
// runs per request, over the rows a batch asks for.
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
		src := st.h[l-1]
		if st.model.TransformsFirst(l) {
			src = src.MatMul(st.model.Layers[l-1].W)
		}
		st.hcat[l] = tensor.New(len(sh.owned)+len(sh.ghostIDs), src.Cols)
		copy(st.hcat[l].Data, src.Data)
		if l == L {
			// Request-time aggregation reads only hcat[L] and (for the
			// SAGE self term) h[L-1].
			for i := 0; i < L-1; i++ {
				st.h[i] = nil
			}
			for i := 1; i < L; i++ {
				st.hcat[i] = nil
			}
		}
		return nil
	case phaseAggregate:
		if err := sh.fetchPrepGhost(v, l, st.hcat[l]); err != nil {
			return err
		}
		if l < L {
			sh.aggregate(l, st)
		}
		return nil
	default:
		return fmt.Errorf("serve: shard %d: unknown prep phase %d", sh.id, phase)
	}
}

// aggregate computes the owned rows of H^l from hcat[l]: the shard's slice
// of Â times the stacked rows, then the layer's dense transform, self term
// and bias, and ReLU (aggregate is never called for the final layer).
func (sh *shard) aggregate(l int, st *versionState) {
	z := sh.prepCSR.SpMM(st.hcat[l])
	layer := st.model.Layers[l-1]
	if !st.model.TransformsFirst(l) {
		z = z.MatMul(layer.W)
	}
	if layer.WSelf != nil {
		z.AddInPlace(st.h[l-1].MatMul(layer.WSelf))
	}
	z.AddRowVector(layer.Bias)
	st.h[l] = z.ReLU()
}

// fetchPrepGhost fills hcat's ghost rows with S^l's rows from the owning
// peers. Preparation exchanges raw rows and treats any peer failure as
// fatal: a version's state is exact or the swap fails.
func (sh *shard) fetchPrepGhost(v uint32, l int, hcat *tensor.Matrix) error {
	if len(sh.needs) == 0 {
		return nil
	}
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
			return fmt.Errorf("serve: shard %d: prep fetch from %d: %w", sh.id, peer, res.Err)
		}
		rows := ec.ParseMatrix(res.Resp)
		for i, id := range sh.needs[peer] {
			hcat.SetRow(len(sh.owned)+int(sh.ghostSlot[id]), rows.Row(i))
		}
	}
	return nil
}

// rows serves owned rows of S^l, raw, to a peer preparing the same layer.
func (sh *shard) rows(v uint32, l int, ids []int32) ([]byte, error) {
	st, err := sh.version(v)
	if err != nil {
		return nil, err
	}
	if l < 1 || l > st.model.NumLayers() || st.hcat[l] == nil {
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
	return ec.RespondRaw(st.hcat[l].GatherRows(rows)), nil
}

// drop frees a version's state.
func (sh *shard) drop(v uint32) {
	sh.mu.Lock()
	delete(sh.versions, v)
	sh.mu.Unlock()
}

// batch answers inference for a batch of owned vertices: their rows of
// Â·S^L from hcat[L], whose ghost rows were installed with the version, so
// no peer is asked; then the final dense transform. Each row is one kernel
// call over its preparation-CSR row, so its bits do not depend on the
// batch it came in.
func (sh *shard) batch(v uint32, ids []int32) ([]byte, error) {
	st, err := sh.version(v)
	if err != nil {
		return nil, err
	}
	rows := make([]int32, len(ids))
	selfRows := make([]int, len(ids))
	for bi, id := range ids {
		li, ok := sh.localIdx[id]
		if !ok {
			return nil, fmt.Errorf("serve: shard %d: vertex %d not owned", sh.id, id)
		}
		rows[bi], selfRows[bi] = li, int(li)
	}
	L := st.model.NumLayers()
	logits := sh.prepCSR.SpMMRows(st.hcat[L], rows)
	layer := st.model.Layers[L-1]
	if !st.model.TransformsFirst(L) {
		logits = logits.MatMul(layer.W)
	}
	if layer.WSelf != nil {
		logits.AddInPlace(st.h[L-1].GatherRows(selfRows).MatMul(layer.WSelf))
	}
	logits.AddRowVector(layer.Bias)

	w := transport.GetWriter(8 + 4*len(logits.Data))
	w.Matrix(logits)
	resp := append([]byte(nil), w.Bytes()...)
	w.Release()
	return resp, nil
}
