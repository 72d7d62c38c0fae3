package worker

import (
	"fmt"
	"runtime"
	"time"

	"ecgraph/internal/compress"
	"ecgraph/internal/ec"
	"ecgraph/internal/graph"
	"ecgraph/internal/tensor"
	"ecgraph/internal/transport"
)

// peerTimeout returns the supervision layer's per-peer straggler deadline
// for calls to j; zero keeps the transport's default timeout. The deadline
// travels inside transport.Call so it applies whether the call runs
// sequentially or inside a concurrent fan-out.
func (w *Worker) peerTimeout(j int) time.Duration {
	if w.cfg.Health != nil {
		return w.cfg.Health.PeerDeadline(j)
	}
	return 0
}

// callPeer routes one ghost exchange with peer j through the transport's
// batch path, so per-peer straggler deadlines apply uniformly.
func (w *Worker) callPeer(j int, method string, req []byte) ([]byte, error) {
	res := w.cfg.Net.CallMulti(w.id, []transport.Call{{
		Dst: j, Method: method, Req: req, Timeout: w.peerTimeout(j),
	}})
	return res[0].Resp, res[0].Err
}

// encodeGhostReq builds the common getH/getG request header into a pooled
// writer; the caller must Release it after CallMulti returns.
func (w *Worker) encodeGhostReq(l, t int) *transport.Writer {
	req := transport.GetWriter(16)
	req.Byte(byte(l))
	req.Uint32(uint32(t))
	req.Int32(int32(w.id))
	return req
}

// pendingGhost is one ghost exchange split into an issue half and a collect
// half. The issue half resolves proactive skips and encodes the per-peer
// calls (epoch goroutine — it touches EC prediction state and the
// degraded-mode counters), then optionally fires the batch on a background
// goroutine. The collect half joins the batch and runs decode/merge, again
// on the epoch goroutine: only the transport call itself ever leaves it, so
// the EC requester state, the degraded bookkeeping and the responder-side
// compensation it triggers see the exact same single-threaded sequence as a
// blocking fetch.
type pendingGhost struct {
	// deferred marks an exchange with nothing to put on the wire early —
	// no ghosts at all, or the delayed-aggregation cache path — where
	// collect performs the whole fetch inline instead.
	deferred bool
	served   map[int]*tensor.Matrix // peer → skip fallback rows
	callIdx  map[int]int            // peer → index into calls/results
	calls    []transport.Call
	writers  []*transport.Writer
	done     chan []transport.Result // nil when no calls go out
	// Overlap-window accounting: firedAt is stamped before the batch
	// goroutine launches, doneAt by that goroutine just before the channel
	// send (so the collector's read after the receive is race-free).
	firedAt time.Time
	doneAt  time.Time
}

// fire launches the batch asynchronously. The goroutine only performs the
// CallMulti and releases the pooled request writers; the buffered channel
// means it never blocks on the collector, so error paths that join late (or
// a test that joins much later) cannot leak it.
//
// The Gosched matters: the issuing goroutine is about to enter the overlap
// window's tight matmul/SpMM loops, which have no scheduling points, and
// Go's async preemption only fires after ~10ms — longer than a typical
// window. Without the yield, on a box with few spare Ps the batch goroutine
// (and the per-call fan-out under it) may not reach the wire until the
// collector blocks, serialising the round-trip after the compute it was
// supposed to hide. One yield lets the batch run to its first blocking
// point — each spawned goroutine executes until it parks on I/O or a timer
// — and costs microseconds when Ps are plentiful.
func (p *pendingGhost) fire(w *Worker) {
	if len(p.calls) == 0 {
		return
	}
	p.done = make(chan []transport.Result, 1)
	p.firedAt = time.Now()
	go func() {
		results := w.cfg.Net.CallMulti(w.id, p.calls)
		for _, wr := range p.writers {
			wr.Release()
		}
		p.doneAt = time.Now()
		p.done <- results
	}()
	runtime.Gosched()
}

// callInline runs the batch synchronously on the caller's goroutine — the
// sequential path's barrier semantics.
func (p *pendingGhost) callInline(w *Worker) []transport.Result {
	if len(p.calls) == 0 {
		return nil
	}
	results := w.cfg.Net.CallMulti(w.id, p.calls)
	for _, wr := range p.writers {
		wr.Release()
	}
	return results
}

// join blocks until the fired batch completes and returns its results.
func (p *pendingGhost) join() []transport.Result {
	if p.done == nil {
		return nil
	}
	return <-p.done
}

// buildGhostH resolves proactive skips and encodes the getH(l, t) call per
// remaining peer. Epoch goroutine only: skip resolution reads EC trend
// state and increments the degraded counters.
func (w *Worker) buildGhostH(l, t int) *pendingGhost {
	p := &pendingGhost{
		served:  make(map[int]*tensor.Matrix, len(w.ghostOwner)),
		callIdx: make(map[int]int, len(w.ghostOwner)),
	}
	for _, j := range w.ghostOwner {
		if skipped := w.skipFallbackH(l, t, j); skipped != nil {
			p.served[j] = skipped
			continue
		}
		req := w.encodeGhostReq(l, t)
		req.Byte(0) // no subset
		if w.cfg.Opts.FPScheme == SchemeEC {
			// The boundary this requester's base came from: the responder
			// re-baselines the pair when it is not the one it holds.
			req.Uint32(w.fpReq[l][j].Seq())
		}
		p.callIdx[j] = len(p.calls)
		p.calls = append(p.calls, transport.Call{
			Dst: j, Method: MethodGetH, Req: req.Bytes(), Timeout: w.peerTimeout(j),
		})
		p.writers = append(p.writers, req)
	}
	return p
}

// fetchGhostH gathers the ghost rows of H^l for iteration t from every
// owning peer (Alg. 3 on the requesting end), decoding per the configured
// forward scheme. With delayed aggregation only the epoch's refresh subset
// travels; the rest comes from the stale cache.
//
// The exchange runs in two phases. The request phase resolves proactive
// skips, then hands the remaining peers' calls to the transport's CallMulti
// in one batch — under the Concurrent wrapper they fan out across bounded
// goroutines, with per-call straggler deadlines attached. The decode/merge
// phase then walks ghostOwner order on the epoch goroutine: results are
// index-aligned with the calls, rows land at fixed ghostBase offsets, and
// the EC requester state plus degraded-mode bookkeeping stay
// single-threaded, so the merged matrix is deterministic regardless of
// completion order. issueGhostH/collectGhostH split the same two phases
// across an overlap window instead of running them back to back.
//
// When an exchange fails even after the transport's own retries, the worker
// degrades gracefully instead of aborting the epoch: it serves the ReqEC-FP
// linear prediction when the scheme maintains trend state, or the last
// successfully fetched rows, subject to the MaxStaleEpochs bound. Peers
// the supervision layer flags suspect are skipped proactively — the same
// fallback, without waiting out retries — as long as the bound holds.
func (w *Worker) fetchGhostH(l, t int) (*graph.GhostOperand, error) {
	if len(w.ghostIDs) == 0 {
		return nil, nil
	}
	if w.ghostHCache != nil {
		m, err := w.fetchGhostHDelayed(l, t, w.cfg.Model.Dims[l])
		if err != nil {
			return nil, err
		}
		return graph.NewGhostDense(m), nil
	}
	p := w.buildGhostH(l, t)
	return w.mergeGhostH(p, w.callInlineTimed(p), l, t)
}

// issueGhostH starts the ghost H^l exchange without waiting for it: skips
// are resolved and the remaining calls are fired on a background goroutine.
// The caller must pair it with exactly one collectGhostH.
func (w *Worker) issueGhostH(l, t int) *pendingGhost {
	if len(w.ghostIDs) == 0 || w.ghostHCache != nil {
		return &pendingGhost{deferred: true}
	}
	p := w.buildGhostH(l, t)
	p.fire(w)
	if tr := w.obs.tracer; tr != nil {
		tr.Instant(fmt.Sprintf("issue getH l%d", l), "comm", 1+w.id, 0, time.Now(), nil)
	}
	return p
}

// collectGhostH joins an issued getH batch and performs the decode/merge
// phase — identical semantics (and identical EC/degraded state mutation
// order) to the blocking fetchGhostH.
func (w *Worker) collectGhostH(p *pendingGhost, l, t int) (*graph.GhostOperand, error) {
	if p.deferred {
		return w.fetchGhostH(l, t)
	}
	return w.mergeGhostH(p, w.joinTimed(p), l, t)
}

// mergeGhostH decodes the batch results in ghostOwner order and assembles
// the ghost operand, applying the degraded fallback per failed peer. Epoch
// goroutine only. With PackedSpMM, purely quantised payloads keep their
// packed wire form inside the operand (decoded only by the fold kernels,
// on register); everything else — raw/sparse payloads, EC trend decodes,
// skip and degraded fallbacks — lands as dense rows.
func (w *Worker) mergeGhostH(p *pendingGhost, results []transport.Result, l, t int) (*graph.GhostOperand, error) {
	if !w.cfg.Opts.PackedSpMM {
		m, err := w.mergeGhostHDense(p, results, l, t)
		if err != nil {
			return nil, err
		}
		return graph.NewGhostDense(m), nil
	}
	op := graph.NewGhostHybrid(len(w.ghostIDs), w.cfg.Model.Dims[l])
	for _, j := range w.ghostOwner {
		base := w.ghostBase[j]
		if rows := p.served[j]; rows != nil {
			opSetDense(op, base, rows)
			continue
		}
		rows, blk, err := w.decodeHPacked(l, t, j, results[p.callIdx[j]])
		if err != nil {
			if rows, err = w.degradedH(l, t, j, err); err != nil {
				return nil, err
			}
			opSetDense(op, base, rows)
			continue
		}
		// Record the last-good state in whichever form arrived; the dense
		// materialisation is deferred to the first fallback that needs it
		// (lastGoodH). Retained packed payloads are never Released — a
		// pooled reclaim could hand their words to a later payload while a
		// degraded epoch still reads them.
		w.hLastGood[l][j], w.hLastPacked[l][j] = rows, blk
		w.hLastEpoch[l][j] = t
		if blk != nil {
			op.SetRowsPacked(base, blk)
		} else {
			opSetDense(op, base, rows)
		}
	}
	return op, nil
}

// mergeGhostHDense is the decode-oracle merge (-packed-spmm=false): every
// payload is decoded into one dense ghost matrix, exactly the pre-packed
// behaviour the packed path is asserted bitwise against.
func (w *Worker) mergeGhostHDense(p *pendingGhost, results []transport.Result, l, t int) (*tensor.Matrix, error) {
	out := tensor.New(len(w.ghostIDs), w.cfg.Model.Dims[l])
	for _, j := range w.ghostOwner {
		rows := p.served[j]
		if rows == nil {
			var err error
			if rows, err = w.decodeH(l, t, j, results[p.callIdx[j]]); err != nil {
				if rows, err = w.degradedH(l, t, j, err); err != nil {
					return nil, err
				}
			} else {
				w.hLastGood[l][j] = rows
				w.hLastPacked[l][j] = nil
				w.hLastEpoch[l][j] = t
			}
		}
		base := w.ghostBase[j]
		for r := 0; r < rows.Rows; r++ {
			copy(out.Row(base+r), rows.Row(r))
		}
	}
	return out, nil
}

// opSetDense installs all rows of a dense payload into the operand at its
// ghostBase offset, by reference.
func opSetDense(op *graph.GhostOperand, base int, rows *tensor.Matrix) {
	for r := 0; r < rows.Rows; r++ {
		op.SetRowDense(base+r, rows.Row(r))
	}
}

// lastGoodH returns peer j's last successfully fetched H rows for layer l,
// materialising a retained packed payload to dense on first use (fallbacks
// are cold paths; the dense form is cached back so repeated degraded epochs
// pay the decode once).
func (w *Worker) lastGoodH(l, j int) *tensor.Matrix {
	if w.hLastGood[l][j] == nil && w.hLastPacked[l][j] != nil {
		w.hLastGood[l][j] = w.hLastPacked[l][j].Dense()
	}
	return w.hLastGood[l][j]
}

// lastGoodG is lastGoodH for gradient rows.
func (w *Worker) lastGoodG(l, j int) *tensor.Matrix {
	if w.gLastGood[l][j] == nil && w.gLastPacked[l][j] != nil {
		w.gLastGood[l][j] = w.gLastPacked[l][j].Dense()
	}
	return w.gLastGood[l][j]
}

// skipFallbackH returns the degraded H rows for peer j when the supervision
// layer flags it suspect and a fallback within the staleness bound exists;
// nil means "call the peer normally" (healthy, no supervision, or the bound
// would be exceeded — the call must then be attempted regardless).
func (w *Worker) skipFallbackH(l, t, j int) *tensor.Matrix {
	if w.cfg.Health == nil || !w.cfg.Health.SkipPeer(j) {
		return nil
	}
	bound := w.cfg.Opts.MaxStaleEpochs
	last := w.hLastEpoch[l][j]
	if bound < 0 || last < 0 || t-last > bound {
		return nil
	}
	w.degraded++
	w.skips++
	if w.cfg.Opts.FPScheme == SchemeEC {
		if pdt, ok := w.fpReq[l][j].Predict(t); ok {
			return pdt
		}
	}
	return w.lastGoodH(l, j)
}

// decodeH turns one getH result from peer j into ghost rows. Runs on the
// epoch goroutine only — the per-(layer,owner) EC requester state is not
// goroutine-safe and must never be touched from the fan-out. Decode panics
// — e.g. an EC payload whose trend baseline this requester never received
// because the boundary message was lost — are converted to errors so the
// degraded path can take over.
func (w *Worker) decodeH(l, t, j int, res transport.Result) (rows *tensor.Matrix, err error) {
	defer func() {
		if r := recover(); r != nil {
			rows = nil
			err = fmt.Errorf("worker %d: decode getH(l=%d,t=%d) from %d: %v", w.id, l, t, j, r)
		}
	}()
	if res.Err != nil {
		return nil, fmt.Errorf("worker %d: getH(l=%d,t=%d) from %d: %w", w.id, l, t, j, res.Err)
	}
	if w.cfg.Opts.FPScheme == SchemeEC {
		return w.fpReq[l][j].Parse(res.Resp, t), nil
	}
	return ec.ParseMatrix(res.Resp), nil
}

// decodeHPacked is decodeH for the packed merge: purely quantised payloads
// come back as a retained *compress.Blocked (rows nil), everything else as
// dense rows (blk nil). FP SchemeEC always decodes dense — its requester
// Parse maintains the trend state the prediction fallback needs.
func (w *Worker) decodeHPacked(l, t, j int, res transport.Result) (rows *tensor.Matrix, blk *compress.Blocked, err error) {
	defer func() {
		if r := recover(); r != nil {
			rows, blk = nil, nil
			err = fmt.Errorf("worker %d: decode getH(l=%d,t=%d) from %d: %v", w.id, l, t, j, r)
		}
	}()
	if res.Err != nil {
		return nil, nil, fmt.Errorf("worker %d: getH(l=%d,t=%d) from %d: %w", w.id, l, t, j, res.Err)
	}
	if w.cfg.Opts.FPScheme == SchemeEC {
		return w.fpReq[l][j].Parse(res.Resp, t), nil, nil
	}
	rows, blk = ec.ParsePacked(res.Resp)
	return rows, blk, nil
}

// degradedH picks the fallback for a failed H exchange with peer j, or
// fails the epoch once the staleness bound is exceeded.
func (w *Worker) degradedH(l, t, j int, cause error) (*tensor.Matrix, error) {
	bound := w.cfg.Opts.MaxStaleEpochs
	last := w.hLastEpoch[l][j]
	if bound < 0 || last < 0 || t-last > bound {
		return nil, fmt.Errorf("worker %d: ghost H(l=%d) from %d unrecoverable at epoch %d (last good epoch %d, staleness bound %d): %w",
			w.id, l, j, t, last, bound, cause)
	}
	w.degraded++
	if w.cfg.Opts.FPScheme == SchemeEC {
		if pdt, ok := w.fpReq[l][j].Predict(t); ok {
			return pdt, nil
		}
	}
	return w.lastGoodH(l, j), nil
}

// refreshPositions returns, for peer j, the indices within Needs[w][j] that
// are refreshed at epoch t under delay r: vertex u refreshes when
// (u + t) mod r == 0, so each ghost refreshes once every r epochs and the
// refresh load spreads evenly. Epoch 0 refreshes everything (cold cache).
func (w *Worker) refreshPositions(j, t int) []int32 {
	lst := w.topo.Needs[w.id][j]
	if t == 0 {
		all := make([]int32, len(lst))
		for i := range all {
			all[i] = int32(i)
		}
		return all
	}
	r := w.cfg.Opts.DelayRounds
	var out []int32
	for i, u := range lst {
		if (int(u)+t)%r == 0 {
			out = append(out, int32(i))
		}
	}
	return out
}

func (w *Worker) fetchGhostHDelayed(l, t, dim int) (*tensor.Matrix, error) {
	cold := w.ghostHCache[l] == nil
	if cold {
		w.ghostHCache[l] = tensor.New(len(w.ghostIDs), dim)
	}
	cache := w.ghostHCache[l]
	for _, j := range w.ghostOwner {
		positions := w.refreshPositions(j, t)
		if cold {
			// First use of this layer's cache — e.g. a resumed run starting
			// at t > 0 — must refresh everything, not just t's subset.
			positions = w.refreshPositions(j, 0)
		}
		if len(positions) == 0 {
			continue
		}
		if w.cfg.Health != nil && w.cfg.Health.SkipPeer(j) {
			// Suspect peer: skip this refresh round and keep serving the
			// stale cache, within the same staleness bound a failed call
			// falls under; beyond it the call is attempted regardless.
			bound := w.cfg.Opts.MaxStaleEpochs
			last := w.hLastEpoch[l][j]
			if bound >= 0 && last >= 0 && t-last <= bound {
				w.degraded++
				w.skips++
				continue
			}
		}
		req := w.encodeGhostReq(l, t)
		req.Byte(1)
		req.Int32s(positions)
		resp, err := w.callPeer(j, MethodGetH, req.Bytes())
		req.Release()
		if err != nil {
			// The cache is already stale-tolerant by design: skip this
			// refresh round and serve the cached rows, within the same
			// staleness bound the non-delayed path enforces.
			bound := w.cfg.Opts.MaxStaleEpochs
			last := w.hLastEpoch[l][j]
			if bound < 0 || last < 0 || t-last > bound {
				return nil, fmt.Errorf("worker %d: delayed getH from %d unrecoverable at epoch %d (last good epoch %d, staleness bound %d): %w",
					w.id, j, t, last, bound, err)
			}
			w.degraded++
			continue
		}
		rows := ec.ParseMatrix(resp)
		base := w.ghostBase[j]
		for r, p := range positions {
			copy(cache.Row(base+int(p)), rows.Row(r))
		}
		w.hLastEpoch[l][j] = t
	}
	return cache, nil
}

// buildGhostG resolves proactive skips and encodes the getG(l, t) call per
// remaining peer. Epoch goroutine only.
func (w *Worker) buildGhostG(l, t int) *pendingGhost {
	p := &pendingGhost{
		served:  make(map[int]*tensor.Matrix, len(w.ghostOwner)),
		callIdx: make(map[int]int, len(w.ghostOwner)),
	}
	for _, j := range w.ghostOwner {
		if skipped := w.skipFallbackG(l, t, j); skipped != nil {
			p.served[j] = skipped
			continue
		}
		req := w.encodeGhostReq(l, t)
		p.callIdx[j] = len(p.calls)
		p.calls = append(p.calls, transport.Call{
			Dst: j, Method: MethodGetG, Req: req.Bytes(), Timeout: w.peerTimeout(j),
		})
		p.writers = append(p.writers, req)
	}
	return p
}

// fetchGhostG gathers ghost rows of G^l for iteration t (Alg. 5) with the
// same two-phase batch-then-merge structure as fetchGhostH. Like the
// forward exchange it degrades to the last-good cached gradient rows when a
// peer stays unreachable, within the MaxStaleEpochs bound.
func (w *Worker) fetchGhostG(l, t int) (*graph.GhostOperand, error) {
	if len(w.ghostIDs) == 0 {
		return nil, nil
	}
	p := w.buildGhostG(l, t)
	return w.mergeGhostG(p, w.callInlineTimed(p), l, t)
}

// issueGhostG starts the ghost G^l exchange without waiting for it; pair
// with exactly one collectGhostG.
func (w *Worker) issueGhostG(l, t int) *pendingGhost {
	if len(w.ghostIDs) == 0 {
		return &pendingGhost{deferred: true}
	}
	p := w.buildGhostG(l, t)
	p.fire(w)
	if tr := w.obs.tracer; tr != nil {
		tr.Instant(fmt.Sprintf("issue getG l%d", l), "comm", 1+w.id, 0, time.Now(), nil)
	}
	return p
}

// collectGhostG joins an issued getG batch and runs the decode/merge phase
// with the blocking fetch's exact semantics.
func (w *Worker) collectGhostG(p *pendingGhost, l, t int) (*graph.GhostOperand, error) {
	if p.deferred {
		return w.fetchGhostG(l, t)
	}
	return w.mergeGhostG(p, w.joinTimed(p), l, t)
}

// mergeGhostG decodes the batch results in ghostOwner order and assembles
// the ghost gradient operand. Epoch goroutine only. The packed/dense split
// mirrors mergeGhostH: quantised payloads (Cp-bp, ResEC-BP) stay in wire
// form, raw/TopK payloads and degraded fallbacks land dense. Payload row k
// of peer j lands at slot k of the pair's list (w.fetch[l][j]); at l == L
// the list covers training vertices only and every other slot stays unset —
// a zero row the fold kernels skip.
func (w *Worker) mergeGhostG(p *pendingGhost, results []transport.Result, l, t int) (*graph.GhostOperand, error) {
	if !w.cfg.Opts.PackedSpMM {
		m, err := w.mergeGhostGDense(p, results, l, t)
		if err != nil {
			return nil, err
		}
		return graph.NewGhostDense(m), nil
	}
	op := graph.NewGhostHybrid(len(w.ghostIDs), w.cfg.Model.Dims[l])
	for _, j := range w.ghostOwner {
		rows, blk := p.served[j], (*compress.Blocked)(nil)
		if rows == nil {
			var err error
			if rows, blk, err = w.decodeGPacked(l, t, j, results[p.callIdx[j]]); err != nil {
				if rows, err = w.degradedG(l, t, j, err); err != nil {
					return nil, err
				}
			} else {
				w.gLastGood[l][j], w.gLastPacked[l][j] = rows, blk
				w.gLastEpoch[l][j] = t
			}
		}
		for k, slot := range w.fetch[l][j].loc {
			if blk != nil {
				op.SetRowPacked(int(slot), blk, k)
			} else {
				op.SetRowDense(int(slot), rows.Row(k))
			}
		}
	}
	return op, nil
}

// mergeGhostGDense is the decode-oracle merge for gradients
// (-packed-spmm=false): every payload decoded into one dense ghost matrix
// whose slots outside the pair lists keep their zeros.
func (w *Worker) mergeGhostGDense(p *pendingGhost, results []transport.Result, l, t int) (*tensor.Matrix, error) {
	out := tensor.New(len(w.ghostIDs), w.cfg.Model.Dims[l])
	for _, j := range w.ghostOwner {
		rows := p.served[j]
		if rows == nil {
			var err error
			if rows, err = w.decodeG(l, t, j, results[p.callIdx[j]]); err != nil {
				if rows, err = w.degradedG(l, t, j, err); err != nil {
					return nil, err
				}
			} else {
				w.gLastGood[l][j] = rows
				w.gLastPacked[l][j] = nil
				w.gLastEpoch[l][j] = t
			}
		}
		for k, slot := range w.fetch[l][j].loc {
			copy(out.Row(int(slot)), rows.Row(k))
		}
	}
	return out, nil
}

// degradedG picks the fallback for a failed G exchange with peer j — the
// last-good rows — or fails the epoch once the staleness bound is exceeded.
func (w *Worker) degradedG(l, t, j int, cause error) (*tensor.Matrix, error) {
	bound := w.cfg.Opts.MaxStaleEpochs
	last := w.gLastEpoch[l][j]
	if bound < 0 || last < 0 || t-last > bound {
		return nil, fmt.Errorf("worker %d: ghost G(l=%d) from %d unrecoverable at epoch %d (last good epoch %d, staleness bound %d): %w",
			w.id, l, j, t, last, bound, cause)
	}
	w.degraded++
	return w.lastGoodG(l, j), nil
}

// skipFallbackG is skipFallbackH for gradient rows: the last-good cached
// rows for a suspect peer, or nil when the call must be attempted.
func (w *Worker) skipFallbackG(l, t, j int) *tensor.Matrix {
	if w.cfg.Health == nil || !w.cfg.Health.SkipPeer(j) {
		return nil
	}
	bound := w.cfg.Opts.MaxStaleEpochs
	last := w.gLastEpoch[l][j]
	if bound < 0 || last < 0 || t-last > bound {
		return nil
	}
	w.degraded++
	w.skips++
	return w.lastGoodG(l, j)
}

// decodeG turns one getG result from peer j into ghost gradient rows,
// converting decode panics into errors for the degraded path. Epoch
// goroutine only.
func (w *Worker) decodeG(l, t, j int, res transport.Result) (rows *tensor.Matrix, err error) {
	defer func() {
		if r := recover(); r != nil {
			rows = nil
			err = fmt.Errorf("worker %d: decode getG(l=%d,t=%d) from %d: %v", w.id, l, t, j, r)
		}
	}()
	if res.Err != nil {
		return nil, fmt.Errorf("worker %d: getG(l=%d,t=%d) from %d: %w", w.id, l, t, j, res.Err)
	}
	rows = ec.ParseMatrix(res.Resp)
	return rows, w.checkGShape(l, j, rows.Rows, rows.Cols)
}

// checkGShape rejects a getG payload from peer j that does not cover the
// pair's list row for row: scattering it would shift every later row onto
// the wrong vertex, so it is a decode error and takes the degraded path.
func (w *Worker) checkGShape(l, j, rows, cols int) error {
	if want := len(w.fetch[l][j].loc); rows != want || cols != w.cfg.Model.Dims[l] {
		return fmt.Errorf("worker %d: getG(l=%d) from %d is %dx%d, the pair list wants %dx%d",
			w.id, l, j, rows, cols, want, w.cfg.Model.Dims[l])
	}
	return nil
}

// decodeGPacked is decodeG for the packed merge: quantised payloads come
// back as a retained *compress.Blocked (rows nil), raw/sparse ones dense.
func (w *Worker) decodeGPacked(l, t, j int, res transport.Result) (rows *tensor.Matrix, blk *compress.Blocked, err error) {
	defer func() {
		if r := recover(); r != nil {
			rows, blk = nil, nil
			err = fmt.Errorf("worker %d: decode getG(l=%d,t=%d) from %d: %v", w.id, l, t, j, r)
		}
	}()
	if res.Err != nil {
		return nil, nil, fmt.Errorf("worker %d: getG(l=%d,t=%d) from %d: %w", w.id, l, t, j, res.Err)
	}
	if rows, blk = ec.ParsePacked(res.Resp); blk != nil {
		err = w.checkGShape(l, j, blk.Rows, blk.Cols)
	} else {
		err = w.checkGShape(l, j, rows.Rows, rows.Cols)
	}
	if err != nil {
		return nil, nil, err
	}
	return rows, blk, nil
}

// Handler returns the transport handler serving this worker's RPCs. It runs
// on peer goroutines concurrently with RunEpoch; the matStore provides the
// synchronisation, and per-(layer,requester) EC state is guarded by ecMu —
// with pipelined transports one requester's abandoned and fresh attempts
// can overlap here.
func (w *Worker) Handler() transport.Handler {
	return func(method string, req []byte) (resp []byte, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("worker %d: %s: %v", w.id, method, r)
			}
		}()
		r := transport.NewReader(req)
		switch method {
		case MethodGetX:
			requester := int(r.Int32())
			rows := w.pairRows[requester]
			if rows == nil {
				return nil, fmt.Errorf("worker %d: no pair set for requester %d", w.id, requester)
			}
			return ec.RespondRaw(w.x.GatherRows(int32sToInts(rows))), nil

		case MethodGetH:
			l := int(r.Byte())
			t := int(r.Uint32())
			requester := int(r.Int32())
			var subset []int32
			if r.Byte() == 1 {
				subset = r.Int32s()
			}
			rows := w.pairRows[requester]
			if rows == nil {
				return nil, fmt.Errorf("worker %d: no pair set for requester %d", w.id, requester)
			}
			h := w.hStore.Wait(l, t)
			sel := rows
			if subset != nil {
				sel = make([]int32, len(subset))
				for i, p := range subset {
					sel[i] = rows[p]
				}
			}
			m := h.GatherRows(int32sToInts(sel))
			switch w.cfg.Opts.FPScheme {
			case SchemeRaw:
				w.storeLayerBits(l, 32)
				return ec.RespondRaw(m), nil
			case SchemeCompress:
				bits := w.FPBits()
				w.storeLayerBits(l, bits)
				return ec.RespondCompressOnly(m, bits), nil
			case SchemeEC:
				seq := r.Uint32()
				// Under ecMu: a leaked handler goroutine from an abandoned
				// timed-out attempt may still be in here while supervised
				// recovery resets the responder state.
				w.ecMu.Lock()
				bits := w.fpBitsLocked()
				resp := w.fpResp[l][requester]
				if resp.OutOfSync(t, seq) {
					// The requester decodes against a base this end does not
					// hold (it lost a boundary): start the pair over with an
					// exact round instead of a trend group of wrong rows.
					resp.Reset()
					resp.ForceExact()
					w.obs.rebaselines.Inc()
				}
				payload, stats := resp.Respond(m, t, bits)
				w.ecMu.Unlock()
				w.storeLayerBits(l, bits)
				if !stats.Exact {
					w.totalRows.Add(int64(stats.Rows))
					w.predictedRows.Add(int64(stats.Predicted))
					w.obs.selPredicted.Add(float64(stats.Predicted))
					w.obs.selAverage.Add(float64(stats.Average))
					w.obs.selCompressed.Add(float64(stats.Rows - stats.Predicted - stats.Average))
				}
				return payload, nil
			default:
				return nil, fmt.Errorf("worker %d: bad FP scheme %v", w.id, w.cfg.Opts.FPScheme)
			}

		case MethodGetG:
			l := int(r.Byte())
			t := int(r.Uint32())
			requester := int(r.Int32())
			if w.pairRows[requester] == nil {
				return nil, fmt.Errorf("worker %d: no pair set for requester %d", w.id, requester)
			}
			// At l == L only the pair's training vertices: the rest of G^L
			// is zero on both ends without being sent.
			rows := w.serve[l][requester].loc
			w.obs.getGShipped.Add(float64(len(rows)))
			w.obs.getGDerived.Add(float64(len(w.pairRows[requester]) - len(rows)))
			g := w.gStore.Wait(l, t)
			m := g.GatherRows(int32sToInts(rows))
			switch w.cfg.Opts.BPScheme {
			case SchemeRaw:
				return ec.RespondRaw(m), nil
			case SchemeCompress:
				return ec.RespondCompressOnlyGrad(m, w.cfg.Opts.BPBits), nil
			case SchemeEC:
				w.ecMu.Lock()
				payload := w.bpResp[l][requester].Respond(m, w.cfg.Opts.BPBits)
				w.ecMu.Unlock()
				return payload, nil
			case SchemeTopK:
				w.ecMu.Lock()
				payload := w.topkResp[l][requester].Respond(m)
				w.ecMu.Unlock()
				return payload, nil
			default:
				return nil, fmt.Errorf("worker %d: bad BP scheme %v", w.id, w.cfg.Opts.BPScheme)
			}

		case MethodHandoff:
			n, err := w.ImportHandoff(req)
			if err != nil {
				return nil, err
			}
			out := transport.NewWriter(4)
			out.Int32(int32(n))
			return out.Bytes(), nil

		case MethodLogits:
			t := int(r.Uint32())
			ids, logits := w.Logits(t)
			out := transport.NewWriter(8 + len(ids)*4 + len(logits.Data)*4)
			out.Int32s(ids)
			out.Matrix(logits)
			return out.Bytes(), nil

		default:
			return nil, fmt.Errorf("worker %d: unknown method %q", w.id, method)
		}
	}
}

// ResidualNorms returns the current ResEC-BP residual norms per layer
// (summed over requesters); zero-valued when ResEC is off. Used by tests
// and the Theorem-1 diagnostics.
func (w *Worker) ResidualNorms() []float64 {
	w.ecMu.Lock()
	defer w.ecMu.Unlock()
	L := w.cfg.Model.NumLayers()
	out := make([]float64, L+1)
	for l := 2; l <= L; l++ {
		if w.bpResp[l] == nil {
			continue
		}
		for _, r := range w.bpResp[l] {
			if r != nil {
				out[l] += r.ResidualNorm()
			}
		}
	}
	return out
}
