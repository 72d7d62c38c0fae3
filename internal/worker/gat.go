package worker

import (
	"fmt"
	"time"

	"ecgraph/internal/ec"
	"ecgraph/internal/nn"
	"ecgraph/internal/tensor"
	"ecgraph/internal/transport"
)

// GAT layers (§III-B: "GAT fetches embeddings from in-neighbors in FP and
// embedding gradients from out-neighbors in BP") run on the same index,
// stores and getH exchange as GCN and SAGE. A layer's attention reads its
// input over owned-then-ghost rows, hcat, through the worker's slice of the
// adjacency (its structure only; nn.Model.Attend computes the weights).
//
// The backward pass is where GAT differs. ∂L/∂hcat has a row for every
// ghost this worker attends to, and a ghost's full gradient is the sum of
// such partials over every worker that holds it. So each worker publishes
// its ghost block in pStore, and each owner gathers its holders' partials
// with one reverse exchange, getP, and adds them into its owned rows. The
// holders are the peers this worker serves getH to, the same pair lists
// read the other way; ResEC-BP compensates the partials through bpResp,
// keyed by owner.
//
// getP is a blocking batch of its own (gatherPartials), not a third
// direction of issue/collect: its peers are the requesters rather than the
// owners, its rows add into owned rows rather than install at ghost slots,
// and nothing computes while it is on the wire, so a third direction would
// add a branch to each of issue, collect, decode and the degraded path and
// gain no overlap.

// attendLayer is forwardLayer for a GAT layer: it collects the getH(l−1)
// ghost rows — layer 1 reads the retained first-hop features instead —
// stacks them under the owned H^{l−1} and attends over both.
func (w *Worker) attendLayer(l, t int, pend *pendingGhost) error {
	model := w.cfg.Model
	t0 := w.spanStart()
	ghost := w.ghostX
	if l > 1 {
		op, err := w.collect(dirH, pend, l-1, t)
		if err != nil {
			return err
		}
		ghost = op.Dense()
	}
	w.span(w.obs.fpSpans[l].collect, "fp", &t0)
	z, att := model.Attend(l, w.adj.RowPtr, w.adj.ColIdx, stack(w.ownH[l-1], ghost))
	z.AddRowVector(model.Layers[l-1].Bias)
	w.att[l], w.z[l] = att, z
	h := z
	if l < model.NumLayers() {
		h = z.ReLU()
	}
	w.ownH[l] = h
	w.hStore.Put(l, t, h)
	w.span(w.obs.fpSpans[l].fold, "fp", &t0)
	return nil
}

// backwardGAT is backward for a GAT model: per layer, the attention's
// gradients over the local rows, then for l ≥ 2 the ghost block of ∂L/∂hcat
// published for its owners and the holders' partials gathered into the
// owned rows.
func (w *Worker) backwardGAT(t, L int, g *tensor.Matrix, grads *nn.Gradients) error {
	n := len(w.owned)
	for l := L; l >= 1; l-- {
		t0 := w.spanStart()
		dh := w.cfg.Model.AttendBackward(l, w.adj.RowPtr, w.adj.ColIdx, w.att[l], g, grads.Layers[l-1])
		w.span(w.obs.bpSpans[l].owned, "bp", &t0)
		if dh == nil {
			return nil
		}
		w.pStore.Put(l, t, tensor.FromSlice(dh.Rows-n, dh.Cols, dh.Data[n*dh.Cols:]))
		owned := tensor.FromSlice(n, dh.Cols, dh.Data[:n*dh.Cols])
		if err := w.gatherPartials(l, t, owned); err != nil {
			return err
		}
		w.span(w.obs.bpSpans[l].collect, "bp", &t0)
		g = owned.ReLUBackwardInPlace(w.z[l-1])
	}
	return nil
}

// gatherPartials adds every holder's layer-l partial gradient of this
// worker's owned rows into owned, holder by holder in ascending order. The
// calls go out as one batch; a failed one fails the epoch — a partial
// gradient has no stale stand-in that keeps the sum right.
func (w *Worker) gatherPartials(l, t int, owned *tensor.Matrix) error {
	var holders []int
	var calls []transport.Call
	var writers []*transport.Writer
	for i, p := range w.serve[0] {
		if p.loc == nil {
			continue
		}
		req := w.encodeGhostReq(l, t)
		holders = append(holders, i)
		writers = append(writers, req)
		calls = append(calls, transport.Call{Dst: i, Method: MethodGetP, Req: req.Bytes(), Timeout: w.peerTimeout(i)})
	}
	results := w.cfg.Net.CallMulti(w.id, calls)
	for _, wr := range writers {
		wr.Release()
	}
	for k, i := range holders {
		if results[k].Err != nil {
			return fmt.Errorf("worker %d: getP(l=%d,t=%d) from %d: %w", w.id, l, t, i, results[k].Err)
		}
		rows, loc := ec.ParseMatrix(results[k].Resp), w.serve[0][i].loc
		if rows.Rows != len(loc) || rows.Cols != owned.Cols {
			return fmt.Errorf("worker %d: getP(l=%d) from %d is %dx%d, the pair list wants %dx%d",
				w.id, l, i, rows.Rows, rows.Cols, len(loc), owned.Cols)
		}
		for r, row := range loc {
			dst := owned.Row(int(row))
			for x, v := range rows.Row(r) {
				dst[x] += v
			}
		}
	}
	return nil
}

// stack returns owned's rows over ghost's: a layer's input in the local
// CSR's column order.
func stack(owned, ghost *tensor.Matrix) *tensor.Matrix {
	if ghost == nil || ghost.Rows == 0 {
		return owned
	}
	out := tensor.New(owned.Rows+ghost.Rows, owned.Cols)
	copy(out.Data, owned.Data)
	copy(out.Data[len(owned.Data):], ghost.Data)
	return out
}

// spanStart stamps the start of a traced span; the zero time when tracing
// is off.
func (w *Worker) spanStart() time.Time {
	if w.obs.tracer == nil {
		return time.Time{}
	}
	return time.Now()
}

// span records the span from *t0 to now under name and starts the next one
// there; a no-op when tracing is off.
func (w *Worker) span(name, cat string, t0 *time.Time) {
	if tr := w.obs.tracer; tr != nil {
		now := time.Now()
		tr.Span(name, cat, 1+w.id, 0, *t0, now.Sub(*t0))
		*t0 = now
	}
}
