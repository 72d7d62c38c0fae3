package worker

import (
	"fmt"
	"sort"

	"ecgraph/internal/tensor"
	"ecgraph/internal/transport"
)

// State handoff for elastic view changes. When a vertex changes owners the
// new owner needs more than the assignment row: the vertex's last
// embeddings (so peers' degraded caches and a double-move re-export stay
// coherent) and its accumulated ResEC-BP quantisation residuals (so the
// error-feedback loop for each (layer, requester) pair continues instead of
// restarting from zero — restarting is safe but costs exactly the
// compensation the paper's Theorem 1 bounds). The old owner serialises the
// moved vertices into an EHF1 payload and ships it over the ordinary
// transport as a w.handoff call, so handoff traffic shares the links, the
// chaos faults and the byte accounting of every other exchange.
//
// EHF1 wire layout (little-endian, transport codec):
//
//	magic "EHF1" | src int32 | dst int32 | L int32 | numVerts int32
//	per vertex, ascending id:
//	  id int32 | x row float32s
//	  per layer 1..L: presence byte, then the H^l row when present
//	residual count uint32
//	per residual: layer byte | requester int32 | vertex int32 | row float32s
//
// H rows may be absent (the source never ran an epoch); residual entries
// exist only where δ had accumulated. Feature rows are shipped even though
// this simulation could read them from the shared matrix — the payload is
// sized as the real system's would be.

// MethodHandoff is the RPC carrying an EHF1 payload from old to new owner.
const MethodHandoff = "w.handoff"

var ehfMagic = [4]byte{'E', 'H', 'F', '1'}

// needsIndex returns v's position in a sorted pair list (Worker.needsAt),
// or -1.
func needsIndex(lst []int32, v int32) int {
	i := sort.Search(len(lst), func(k int) bool { return lst[k] >= v })
	if i < len(lst) && lst[i] == v {
		return i
	}
	return -1
}

// ExportHandoff serialises the state of the given owned vertices for their
// new owner dst. moved must be sorted ascending and owned by this worker
// under its (old) topology. H rows come from the last completed epoch's
// ownH, falling back to rows this worker itself received by handoff and
// never recomputed (a double move: A→B→C across consecutive view changes
// with no epoch between); residual rows cover every (layer, requester) pair
// whose list (needsAt) contains a moved vertex — at the top layer that is
// training vertices only, so a moved non-training vertex has no top-layer
// residual row to export.
func (w *Worker) ExportHandoff(dst int, moved []int32) []byte {
	L := w.cfg.Model.NumLayers()
	out := transport.NewWriter(64 + len(moved)*4*(w.cfg.Feats.Cols+1))
	out.Uint8s(ehfMagic[:])
	out.Int32(int32(w.id))
	out.Int32(int32(dst))
	out.Int32(int32(L))
	out.Int32(int32(len(moved)))
	for _, v := range moved {
		pos, ok := w.ownedPos[v]
		if !ok {
			panic(fmt.Sprintf("worker %d: exporting vertex %d it does not own", w.id, v))
		}
		out.Int32(v)
		out.Float32s(w.x.Row(int(pos)))
		for l := 1; l <= L; l++ {
			var row []float32
			if w.ownH[l] != nil {
				row = w.ownH[l].Row(int(pos))
			} else if w.handoffH != nil && w.handoffH[l] != nil {
				row = w.handoffH[l][v]
			}
			if row == nil {
				out.Byte(0)
				continue
			}
			out.Byte(1)
			out.Float32s(row)
		}
	}

	type resEntry struct {
		layer     int
		requester int
		vertex    int32
		row       []float32
	}
	var entries []resEntry
	w.ecMu.Lock()
	for l := 2; l <= L; l++ {
		if l >= len(w.bpResp) || w.bpResp[l] == nil {
			continue
		}
		for req, r := range w.bpResp[l] {
			if r == nil {
				continue
			}
			lst := w.needsAt(l, req, w.id)
			for _, v := range moved {
				idx := needsIndex(lst, v)
				if idx < 0 {
					continue
				}
				if row := r.ResidualRow(idx); row != nil {
					entries = append(entries, resEntry{layer: l, requester: req, vertex: v, row: row})
				}
			}
		}
	}
	w.ecMu.Unlock()
	out.Uint32(uint32(len(entries)))
	for _, e := range entries {
		out.Byte(byte(e.layer))
		out.Int32(int32(e.requester))
		out.Int32(e.vertex)
		out.Float32s(e.row)
	}
	return out.Bytes()
}

// ImportHandoff installs an EHF1 payload on the receiving (new) owner:
// feature rows land in the owned slice, H rows in the handoff cache (served
// on re-export until the first local epoch overwrites them), and residual
// rows are re-seeded into the (layer, requester) responders that still pair
// with the vertex under the new topology — a pair that no longer exists
// simply drops its residual, the fresh-responder state. Returns the number
// of vertices installed.
func (w *Worker) ImportHandoff(payload []byte) (int, error) {
	r := transport.NewReader(payload)
	magic := r.Uint8s()
	if len(magic) != 4 || [4]byte(magic) != ehfMagic {
		return 0, fmt.Errorf("worker %d: handoff payload has bad magic %v", w.id, magic)
	}
	src := int(r.Int32())
	dst := int(r.Int32())
	if dst != w.id {
		return 0, fmt.Errorf("worker %d: handoff from %d addressed to %d", w.id, src, dst)
	}
	L := int(r.Int32())
	if L != w.cfg.Model.NumLayers() {
		return 0, fmt.Errorf("worker %d: handoff from %d has %d layers, model has %d", w.id, src, L, w.cfg.Model.NumLayers())
	}
	n := int(r.Int32())
	if w.handoffH == nil {
		w.handoffH = make([]map[int32][]float32, L+1)
	}
	for i := 0; i < n; i++ {
		v := r.Int32()
		pos, ok := w.ownedPos[v]
		if !ok {
			return 0, fmt.Errorf("worker %d: handoff from %d carries vertex %d this worker does not own", w.id, src, v)
		}
		x := r.Float32s()
		if len(x) != w.x.Cols {
			return 0, fmt.Errorf("worker %d: handoff feature row for %d has %d values, want %d", w.id, v, len(x), w.x.Cols)
		}
		copy(w.x.Row(int(pos)), x)
		for l := 1; l <= L; l++ {
			if r.Byte() == 0 {
				continue
			}
			row := r.Float32s()
			if len(row) != w.cfg.Model.Dims[l] {
				return 0, fmt.Errorf("worker %d: handoff H^%d row for %d has %d values, want %d", w.id, l, v, len(row), w.cfg.Model.Dims[l])
			}
			if w.handoffH[l] == nil {
				w.handoffH[l] = make(map[int32][]float32)
			}
			w.handoffH[l][v] = row
		}
	}

	nRes := int(r.Uint32())
	w.ecMu.Lock()
	defer w.ecMu.Unlock()
	for i := 0; i < nRes; i++ {
		l := int(r.Byte())
		req := int(r.Int32())
		v := r.Int32()
		row := r.Float32s()
		if l < 2 || l > L || req < 0 || req >= w.topo.NumWorkers {
			return 0, fmt.Errorf("worker %d: handoff residual (layer %d, requester %d) out of range", w.id, l, req)
		}
		if w.bpResp[l] == nil || w.bpResp[l][req] == nil {
			continue // ResEC off, or the pair does not exist under the new view
		}
		lst := w.needsAt(l, req, w.id)
		idx := needsIndex(lst, v)
		if idx < 0 {
			continue // requester no longer needs this vertex('s layer-l row) from us
		}
		w.bpResp[l][req].SeedResidualRow(len(lst), w.cfg.Model.Dims[l], idx, row)
	}
	return n, nil
}

// lastRow returns the freshest d row of layer l this worker holds for vertex
// v and the epoch it reflects (−1 when it has nothing), at width(d, l): for
// owned vertices the rows it published for d — or, for H, rows received by
// handoff and not yet recomputed, which are H^l's and so stand in only where
// getH(l) ships H^l — and for ghosts the last good degraded rows, which at
// the top getG layer hold training vertices only (nobody asks for the
// others: SeedDegradedCaches walks the same list).
func (w *Worker) lastRow(d direction, l int, v int32) ([]float32, int) {
	if pos, ok := w.ownedPos[v]; ok {
		store := w.hStore
		if d == dirG {
			store = w.gStore
		}
		if m, ep := store.Peek(l); m != nil && ep >= 0 {
			return m.Row(int(pos)), ep
		}
		if d == dirH && w.handoffH != nil && w.handoffH[l] != nil && w.width(d, l) == w.cfg.Model.Dims[l] {
			if row := w.handoffH[l][v]; row != nil {
				// Rows received by handoff reflect the epoch before the view
				// change that delivered them; conservatively epoch 0 — the
				// tag only bounds staleness, it never selects data.
				return row, 0
			}
		}
		return nil, -1
	}
	if _, ok := w.ghostPos[v]; ok {
		j := w.topo.Assign[v]
		rec := &w.last[d][l][j]
		if m := rec.dense(); m != nil && rec.epoch >= 0 {
			if idx := needsIndex(w.needsAt(l, w.id, j), v); idx >= 0 {
				return m.Row(idx), rec.epoch
			}
		}
	}
	return nil, -1
}

// SeedDegradedCaches populates a freshly built worker's last-good ghost
// caches from the previous view's workers, so the degraded path can serve
// reads for moved vertices immediately after a transition instead of having
// no fallback until the first post-change exchange succeeds. prev maps old
// worker ids to their (still readable) previous-view objects — crashed
// workers are absent, and any ghost group with a missing row is simply left
// unseeded: degraded serving is an optimisation, never a correctness
// requirement. A group's staleness tag is its oldest contributing row, so
// MaxStaleEpochs keeps its meaning across the view change.
func (w *Worker) SeedDegradedCaches(prev map[int]*Worker) {
	L := w.cfg.Model.NumLayers()
	// Deterministic probe order: old workers ascending.
	ids := make([]int, 0, len(prev))
	for id := range prev {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	seed := func(d direction, l, j int) {
		lst := w.needsAt(l, w.id, j)
		m := tensor.New(len(lst), w.width(d, l))
		tag := -1
		for i, v := range lst {
			var row []float32
			ep := -1
			for _, id := range ids {
				if r, e := prev[id].lastRow(d, l, v); r != nil && (ep < 0 || e > ep) {
					row, ep = r, e
				}
			}
			if row == nil {
				return
			}
			copy(m.Row(i), row)
			if tag < 0 || ep < tag {
				tag = ep
			}
		}
		w.last[d][l][j] = lastGood{rows: m, epoch: tag}
	}

	for _, j := range w.ghostOwner {
		for l := 1; l < L; l++ {
			seed(dirH, l, j)
		}
		for l := 2; l <= L; l++ {
			seed(dirG, l, j)
		}
	}
}
