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

// direction is one of the two ghost exchanges: getH ships rows of H^l in the
// forward pass, getG rows of G^l in the backward pass. Both ship a pair's
// rows of one layer in its list's order (w.fetch[l][owner]) and install
// payload row k at the list's ghost slot loc[k]; everything else they share
// except what direction's methods and Worker.trend answer.
type direction int

const (
	dirH direction = iota
	dirG
)

// String names the exchange in errors and trace labels.
func (d direction) String() string {
	if d == dirH {
		return "getH"
	}
	return "getG"
}

func (d direction) method() string {
	if d == dirH {
		return MethodGetH
	}
	return MethodGetG
}

// trend reports whether this requester keeps ReqEC-FP trend state for d's
// pairs: the state that decodes their payloads and predicts their fallback
// rows. Only the forward exchange under SchemeEC has it.
func (w *Worker) trend(d direction) bool {
	return d == dirH && w.cfg.Opts.FPScheme == SchemeEC
}

// width is the row width of d's exchange at layer l: G^l's and H^l's, except
// that getH(l) ships P^{l+1} = H^l·W^{l+1}, layer l+1's width, when that
// layer transforms first. The ghost operand, every reply's shape check and
// the degraded caches are all sized by it.
func (w *Worker) width(d direction, l int) int {
	if d == dirH && w.transformFirst(l+1) {
		return w.cfg.Model.Dims[l+1]
	}
	return w.cfg.Model.Dims[l]
}

// lastGood is one (direction, layer, owner) pair's degraded-mode record: the
// rows last fetched successfully and the epoch they arrived (−1: none). A
// payload that arrived packed is kept as it came (rows nil) until a fallback
// first needs it dense. Retained payloads are never Released: the words must
// not return to the pool while a later fallback may still read them.
type lastGood struct {
	rows   *tensor.Matrix
	packed *compress.Blocked
	epoch  int
}

// dense returns the record's rows, decoding a retained packed payload on
// first use; fallbacks are cold paths, so repeated degraded epochs pay the
// decode once.
func (g *lastGood) dense() *tensor.Matrix {
	if g.rows == nil && g.packed != nil {
		g.rows = g.packed.Dense()
	}
	return g.rows
}

// peerTimeout returns the supervision layer's per-peer straggler deadline
// for calls to j; zero keeps the transport's default timeout. The deadline
// travels inside transport.Call so it applies inside the concurrent fan-out.
func (w *Worker) peerTimeout(j int) time.Duration {
	if w.cfg.Health != nil {
		return w.cfg.Health.PeerDeadline(j)
	}
	return 0
}

// encodeGhostReq builds the common getH/getG request header into a pooled
// writer; the caller must Release it after the call returns.
func (w *Worker) encodeGhostReq(l, t int) *transport.Writer {
	req := transport.GetWriter(16)
	req.Byte(byte(l))
	req.Uint32(uint32(t))
	req.Int32(int32(w.id))
	return req
}

// pendingGhost is one ghost exchange between its issue and its collect.
// Issue resolves proactive skips and encodes the per-peer calls on the epoch
// goroutine — it touches EC prediction state and the degraded-mode counters
// — and fires the batch on a background goroutine. Collect joins the batch
// and decodes and installs the rows, again on the epoch goroutine: only the
// transport call itself ever leaves it, so the EC requester state, the
// degraded bookkeeping and the responder-side compensation it triggers see
// one deterministic sequence whatever order the replies arrive in.
type pendingGhost struct {
	served  map[int]*tensor.Matrix // peer → skip fallback rows
	callIdx map[int]int            // peer → index into calls/results
	calls   []transport.Call
	writers []*transport.Writer
	done    chan []transport.Result // nil when no calls go out
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

// issue starts the d exchange of layer l for epoch t (Alg. 3 and Alg. 5 on
// the requesting end) without waiting for it. Peers the supervision layer
// flags suspect are served their fallback instead, within the staleness
// bound; the rest get one call each, in one CallMulti batch that the
// Concurrent transport fans out across bounded goroutines with per-call
// straggler deadlines. Pair it with exactly one collect. Nil when there is
// nothing to put on the wire early — no ghosts, or the delayed-aggregation
// refresh, which collect runs inline.
func (w *Worker) issue(d direction, l, t int) *pendingGhost {
	if len(w.ghostIDs) == 0 || (d == dirH && w.ghostHCache != nil) {
		return nil
	}
	p := &pendingGhost{
		served:  make(map[int]*tensor.Matrix, len(w.ghostOwner)),
		callIdx: make(map[int]int, len(w.ghostOwner)),
	}
	for _, j := range w.ghostOwner {
		if w.skip(d, l, t, j) {
			p.served[j] = w.fallback(d, l, t, j)
			continue
		}
		req := w.encodeGhostReq(l, t)
		if d == dirH {
			req.Byte(0) // no subset
			if w.trend(d) {
				// The boundary this requester's base came from: the responder
				// re-baselines the pair when it is not the one it holds.
				req.Uint32(w.fpReq[l][j].Seq())
			}
		}
		p.callIdx[j] = len(p.calls)
		p.calls = append(p.calls, transport.Call{
			Dst: j, Method: d.method(), Req: req.Bytes(), Timeout: w.peerTimeout(j),
		})
		p.writers = append(p.writers, req)
	}
	p.fire(w)
	if tr := w.obs.tracer; tr != nil {
		tr.Instant(fmt.Sprintf("issue %v l%d", d, l), "comm", 1+w.id, 0, time.Now(), nil)
	}
	return p
}

// collect joins an issued exchange and assembles the ghost operand, walking
// ghostOwner order on the epoch goroutine so the result is deterministic
// regardless of completion order. Purely quantised payloads keep their
// packed wire form inside the operand (decoded only by the fold, strip by
// strip); everything else — raw and sparse payloads, ReqEC-FP decodes, skip
// and degraded fallbacks — lands as dense rows. At l == L the getG list
// covers training vertices only and every other slot stays unset: a zero row
// the fold skips.
//
// When an exchange fails even after the transport's own retries, or its
// reply does not decode to the pair's list, the worker degrades instead of
// aborting the epoch: it serves the ReqEC-FP linear prediction where the
// requester keeps trend state, or the last rows fetched successfully, as
// long as the MaxStaleEpochs bound holds.
func (w *Worker) collect(d direction, p *pendingGhost, l, t int) (*graph.GhostOperand, error) {
	switch {
	case len(w.ghostIDs) == 0:
		return nil, nil
	case p == nil:
		m, err := w.fetchGhostHDelayed(l, t)
		if err != nil {
			return nil, err
		}
		return graph.NewGhostDense(m), nil
	}
	results := w.joinTimed(p)
	op := graph.NewGhostHybrid(len(w.ghostIDs), w.width(d, l))
	for _, j := range w.ghostOwner {
		loc := w.fetch[l][j].loc
		rows, skipped := p.served[j]
		var blk *compress.Blocked
		if !skipped {
			var err error
			if rows, blk, err = w.decode(d, l, t, j, results[p.callIdx[j]], len(loc)); err != nil {
				if rows, err = w.degrade(d, l, t, j, err); err != nil {
					return nil, err
				}
			} else {
				w.last[d][l][j] = lastGood{rows: rows, packed: blk, epoch: t}
			}
		}
		for k, slot := range loc {
			if blk != nil {
				op.SetRowPacked(int(slot), blk, k)
			} else {
				op.SetRowDense(int(slot), rows.Row(k))
			}
		}
	}
	return op, nil
}

// decode turns owner j's reply into want rows of width(d, l): dense, or a
// purely quantised payload kept packed (rows nil). The ReqEC-FP requester
// decodes its own payloads, which maintains the trend state its fallback
// predicts from. Any panic — e.g. an EC payload whose trend base this
// requester never received because the boundary message was lost — and any
// reply of another shape is an error, so the degraded path takes over
// instead of a scatter that lands rows on the wrong vertices. Epoch
// goroutine only: the requester state is not goroutine-safe.
func (w *Worker) decode(d direction, l, t, j int, res transport.Result, want int) (rows *tensor.Matrix, blk *compress.Blocked, err error) {
	defer func() {
		if r := recover(); r != nil {
			rows, blk = nil, nil
			err = fmt.Errorf("worker %d: decode %v(l=%d,t=%d) from %d: %v", w.id, d, l, t, j, r)
		}
	}()
	if res.Err != nil {
		return nil, nil, fmt.Errorf("worker %d: %v(l=%d,t=%d) from %d: %w", w.id, d, l, t, j, res.Err)
	}
	if w.trend(d) {
		rows = w.fpReq[l][j].Parse(res.Resp, t)
	} else {
		rows, blk = ec.ParsePacked(res.Resp)
	}
	var n, cols int
	if blk != nil {
		n, cols = blk.Rows, blk.Cols
	} else {
		n, cols = rows.Rows, rows.Cols
	}
	if width := w.width(d, l); n != want || cols != width {
		return nil, nil, fmt.Errorf("worker %d: %v(l=%d) from %d is %dx%d, the pair list wants %dx%d",
			w.id, d, l, j, n, cols, want, width)
	}
	return rows, blk, nil
}

// fresh reports whether owner j's last good rows may stand in for its d rows
// of layer l at epoch t: some exist, and they are within MaxStaleEpochs.
func (w *Worker) fresh(d direction, l, t, j int) bool {
	bound, last := w.cfg.Opts.MaxStaleEpochs, w.last[d][l][j].epoch
	return bound >= 0 && last >= 0 && t-last <= bound
}

// fallback returns the degraded rows for owner j: the ReqEC-FP linear
// prediction where the requester keeps trend state and has one, else the
// last good rows.
func (w *Worker) fallback(d direction, l, t, j int) *tensor.Matrix {
	if w.trend(d) {
		if pdt, ok := w.fpReq[l][j].Predict(t); ok {
			return pdt
		}
	}
	return w.last[d][l][j].dense()
}

// skip reports, and counts as a degraded fetch, whether owner j is served
// from its fallback without a call: the supervision layer flags it suspect
// and the fallback is fresh. Beyond the bound the call is attempted
// regardless.
func (w *Worker) skip(d direction, l, t, j int) bool {
	if w.cfg.Health == nil || !w.cfg.Health.SkipPeer(j) || !w.fresh(d, l, t, j) {
		return false
	}
	w.degraded++
	w.skips++
	return true
}

// degrade picks the fallback for a failed exchange with owner j, or fails
// the epoch once the staleness bound is exceeded.
func (w *Worker) degrade(d direction, l, t, j int, cause error) (*tensor.Matrix, error) {
	if !w.fresh(d, l, t, j) {
		return nil, fmt.Errorf("worker %d: ghost %v(l=%d) from %d unrecoverable at epoch %d (last good epoch %d, staleness bound %d): %w",
			w.id, d, l, j, t, w.last[d][l][j].epoch, w.cfg.Opts.MaxStaleEpochs, cause)
	}
	w.degraded++
	return w.fallback(d, l, t, j), nil
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

// fetchGhostHDelayed is the DistGNN-style delayed getH: only epoch t's
// refresh subset of each pair travels, one blocking call per peer, and the
// rest of the ghost rows come from the stale cache. The cache is
// stale-tolerant by design, so a suspect peer or a failed refresh keeps
// serving it within the same staleness bound as the pipelined exchange.
func (w *Worker) fetchGhostHDelayed(l, t int) (*tensor.Matrix, error) {
	cold := w.ghostHCache[l] == nil
	if cold {
		w.ghostHCache[l] = tensor.New(len(w.ghostIDs), w.cfg.Model.Dims[l])
	}
	cache := w.ghostHCache[l]
	for _, j := range w.ghostOwner {
		positions := w.refreshPositions(j, t)
		if cold {
			// First use of this layer's cache — e.g. a resumed run starting
			// at t > 0 — must refresh everything, not just t's subset.
			positions = w.refreshPositions(j, 0)
		}
		if len(positions) == 0 || w.skip(dirH, l, t, j) {
			continue
		}
		req := w.encodeGhostReq(l, t)
		req.Byte(1)
		req.Int32s(positions)
		res := w.cfg.Net.CallMulti(w.id, []transport.Call{{
			Dst: j, Method: MethodGetH, Req: req.Bytes(), Timeout: w.peerTimeout(j),
		}})[0]
		req.Release()
		rows, _, err := w.decode(dirH, l, t, j, res, len(positions))
		if err != nil {
			if _, err := w.degrade(dirH, l, t, j, err); err != nil {
				return nil, err
			}
			continue
		}
		loc := w.fetch[l][j].loc
		for r, p := range positions {
			copy(cache.Row(int(loc[p])), rows.Row(r))
		}
		w.last[dirH][l][j].epoch = t
	}
	return cache, nil
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
			rows := w.serve[0][requester].loc
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
			rows := w.serve[l][requester].loc
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
			switch w.cfg.Opts.FPScheme {
			case SchemeRaw:
				w.storeLayerBits(l, 32)
				return ec.RespondRaw(h.GatherRows(int32sToInts(sel))), nil
			case SchemeCompress:
				bits := w.FPBits()
				w.storeLayerBits(l, bits)
				return ec.RespondCompressOnly(h.GatherRows(int32sToInts(sel)), bits), nil
			case SchemeEC:
				seq := r.Uint32()
				// Under ecMu: a leaked handler goroutine from an abandoned
				// timed-out attempt may still be in here while supervised
				// recovery resets the responder state.
				var bits int
				var payload []byte
				var stats ec.RespondStats
				w.underEC(func() {
					bits = w.fpBitsLocked()
					resp := w.fpResp[l][requester]
					if resp.OutOfSync(t, seq) {
						// The requester decodes against a base this end does
						// not hold (it lost a boundary): start the pair over
						// with an exact round instead of a trend group of
						// wrong rows.
						resp.Reset()
						resp.ForceExact()
						w.obs.rebaselines.Inc()
					}
					m := gatherInto(w.fpRows, h, sel)
					w.fpRows = m.Data
					payload, stats = resp.Respond(m, t, bits)
				})
				w.storeLayerBits(l, bits)
				if !stats.Boundary {
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
			all := w.serve[0][requester]
			if all.loc == nil {
				return nil, fmt.Errorf("worker %d: no pair set for requester %d", w.id, requester)
			}
			// At l == L only the pair's training vertices: the rest of G^L
			// is zero on both ends without being sent.
			rows := w.serve[l][requester].loc
			w.obs.getGShipped.Add(float64(len(rows)))
			w.obs.getGDerived.Add(float64(len(all.loc) - len(rows)))
			return w.respondBP(l, requester, w.gStore.Wait(l, t).GatherRows(int32sToInts(rows)))

		case MethodGetP:
			l := int(r.Byte())
			t := int(r.Uint32())
			owner := int(r.Int32())
			slots := w.fetch[0][owner].loc
			if slots == nil {
				return nil, fmt.Errorf("worker %d: holds no ghosts of %d", w.id, owner)
			}
			return w.respondBP(l, owner, w.pStore.Wait(l, t).GatherRows(int32sToInts(slots)))

		case MethodHandoff:
			n, err := w.ImportHandoff(req)
			if err != nil {
				return nil, err
			}
			out := transport.NewWriter(4)
			out.Int32(int32(n))
			return out.Bytes(), nil

		default:
			return nil, fmt.Errorf("worker %d: unknown method %q", w.id, method)
		}
	}
}

// respondBP encodes a backward payload for peer under the BP scheme: getG's
// G rows for a requester, or getP's partials for an owner. A transform-first
// layer's ResEC-BP rows go at no fewer than minGradBits.
func (w *Worker) respondBP(l, peer int, m *tensor.Matrix) (payload []byte, err error) {
	switch w.cfg.Opts.BPScheme {
	case SchemeRaw:
		return ec.RespondRaw(m), nil
	case SchemeCompress:
		return ec.RespondCompressOnlyGrad(m, w.cfg.Opts.BPBits), nil
	case SchemeEC:
		bits := w.cfg.Opts.BPBits
		if w.transformFirst(l) {
			bits = max(bits, minGradBits)
		}
		w.underEC(func() { payload = w.bpResp[l][peer].Respond(m, bits) })
		return payload, nil
	case SchemeTopK:
		w.underEC(func() { payload = w.topkResp[l][peer].Respond(m) })
		return payload, nil
	default:
		return nil, fmt.Errorf("worker %d: bad BP scheme %v", w.id, w.cfg.Opts.BPScheme)
	}
}

// underEC runs f holding ecMu, and releases it even when f panics: the
// handler's recover turns a panicking codec into an error reply, and a lock
// left held would block every later EC reply of this worker.
func (w *Worker) underEC(f func()) {
	w.ecMu.Lock()
	defer w.ecMu.Unlock()
	f()
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
