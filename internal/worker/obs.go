package worker

import (
	"strconv"
	"time"

	"ecgraph/internal/obs"
	"ecgraph/internal/transport"
)

// workerObs holds this worker's pre-resolved telemetry handles. With no
// registry every handle is nil and every update is a no-op branch, so the
// epoch goroutine pays nothing measurable for disabled telemetry; with a
// registry the updates are single atomics on preallocated metrics.
//
// Families (worker label = this worker's id):
//
//	ecgraph_ec_fp_bits{worker}                     current FP codec width
//	ecgraph_ec_predicted_fraction{worker}          last epoch's predictor win rate
//	ecgraph_ec_tuner_decisions_total{worker,decision="up"|"down"|"hold"}
//	ecgraph_ec_fp_choice_total{worker,choice="compressed"|"predicted"|"average"}
//	ecgraph_ec_residual_l2{worker,layer}           ResEC-BP residual norm
//	ecgraph_ec_rebaselines_total{worker}           ReqEC-FP pairs restarted after a lost boundary
//	ecgraph_worker_degraded_fetches_total{worker}
//	ecgraph_worker_straggler_skips_total{worker}
//	ecgraph_worker_comm_seconds_total{worker,kind="wire"|"blocked"}
//	ecgraph_worker_overlap_utilization{worker}     (wire−blocked)/wire, last epoch
//	ecgraph_worker_epochs_total{worker}
//	ecgraph_layer1_sparse_operands{worker}         0–3 of ÂX's retained operands held as CSR
//	ecgraph_getg_rows_total{worker,kind="shipped"|"derived"}  getG rows served vs left to the mask
type workerObs struct {
	tracer *obs.Tracer
	// fpSpans/bpSpans hold the per-layer span names, indexed by layer and
	// built once: formatting them per layer per epoch would charge the
	// tracer's own cost to the spans it measures.
	fpSpans, bpSpans []layerSpans

	fpBits   *obs.Gauge
	predFrac *obs.Gauge

	tunerUp   *obs.Counter
	tunerDown *obs.Counter
	tunerHold *obs.Counter

	selCompressed *obs.Counter
	selPredicted  *obs.Counter
	selAverage    *obs.Counter

	residual    []*obs.Gauge // indexed by layer, nil-safe entries
	rebaselines *obs.Counter

	degraded    *obs.Counter
	skips       *obs.Counter
	commWire    *obs.Counter
	commBlocked *obs.Counter
	overlapUtil *obs.Gauge
	epochs      *obs.Counter

	layer1Sparse *obs.Gauge

	getGShipped *obs.Counter
	getGDerived *obs.Counter
}

// layerSpans are the names of one layer's compute spans in one pass.
type layerSpans struct{ owned, collect, fold string }

// newLayerSpans names layers 1..numLayers of a pass ("fp", "bp"):
// "fp2 owned", "fp2 collect", "fp2 fold".
func newLayerSpans(pass string, numLayers int) []layerSpans {
	out := make([]layerSpans, numLayers+1)
	for l := 1; l <= numLayers; l++ {
		p := pass + strconv.Itoa(l)
		out[l] = layerSpans{p + " owned", p + " collect", p + " fold"}
	}
	return out
}

func newWorkerObs(reg *obs.Registry, tracer *obs.Tracer, id, numLayers int) workerObs {
	w := strconv.Itoa(id)
	tuner := reg.CounterVec("ecgraph_ec_tuner_decisions_total",
		"Bit-Tuner outcomes per epoch: width doubled (up), halved (down) or kept (hold).",
		"worker", "decision")
	choice := reg.CounterVec("ecgraph_ec_fp_choice_total",
		"ReqEC-FP selector outcomes per vertex row served.", "worker", "choice")
	residual := reg.GaugeVec("ecgraph_ec_residual_l2",
		"ResEC-BP residual norm per layer, summed over requesters.", "worker", "layer")
	getG := reg.CounterVec("ecgraph_getg_rows_total",
		"Gradient rows this worker's getG handler served: shipped on the wire, or derived — top-layer rows of non-training vertices, which both ends know are zero from the global train mask and which are never gathered, compensated or sent.",
		"worker", "kind")
	comm := reg.CounterVec("ecgraph_worker_comm_seconds_total",
		"Ghost-exchange wall seconds: wire = batch launch to completion, blocked = epoch goroutine actually waiting.",
		"worker", "kind")
	o := workerObs{
		tracer:  tracer,
		fpSpans: newLayerSpans("fp", numLayers),
		bpSpans: newLayerSpans("bp", numLayers),
		fpBits: reg.GaugeVec("ecgraph_ec_fp_bits",
			"Current forward codec bit width (tuned or fixed).", "worker").With(w),
		predFrac: reg.GaugeVec("ecgraph_ec_predicted_fraction",
			"Fraction of served rows the ReqEC-FP predictor won last epoch.", "worker").With(w),
		tunerUp:       tuner.With(w, "up"),
		tunerDown:     tuner.With(w, "down"),
		tunerHold:     tuner.With(w, "hold"),
		selCompressed: choice.With(w, "compressed"),
		selPredicted:  choice.With(w, "predicted"),
		selAverage:    choice.With(w, "average"),
		rebaselines: reg.CounterVec("ecgraph_ec_rebaselines_total",
			"ReqEC-FP pairs this responder restarted with a flag-0 exact round because the requester's boundary count was not its own.", "worker").With(w),
		degraded: reg.CounterVec("ecgraph_worker_degraded_fetches_total",
			"Ghost exchanges served from stale cache or prediction instead of the wire.", "worker").With(w),
		skips: reg.CounterVec("ecgraph_worker_straggler_skips_total",
			"Degraded fetches taken proactively because supervision flagged the peer.", "worker").With(w),
		commWire:    comm.With(w, "wire"),
		commBlocked: comm.With(w, "blocked"),
		overlapUtil: reg.GaugeVec("ecgraph_worker_overlap_utilization",
			"Share of last epoch's ghost-exchange wire time hidden behind compute.", "worker").With(w),
		epochs: reg.CounterVec("ecgraph_worker_epochs_total",
			"Epochs this worker completed.", "worker").With(w),
		layer1Sparse: reg.GaugeVec("ecgraph_layer1_sparse_operands",
			"How many of layer 1's three epoch-invariant left operands (ÂX, its boundary rows' owned and ghost parts) are retained as CSR rather than dense; each is whichever takes fewer bytes.", "worker").With(w),
		getGShipped: getG.With(w, "shipped"),
		getGDerived: getG.With(w, "derived"),
	}
	o.residual = make([]*obs.Gauge, numLayers+1)
	for l := 2; l <= numLayers; l++ {
		o.residual[l] = residual.With(w, strconv.Itoa(l))
	}
	return o
}

// finishEpochObs folds one epoch's degraded/overlap/EC bookkeeping into
// the report and the metric handles. Epoch goroutine only.
func (w *Worker) finishEpochObs(report *EpochReport) {
	report.DegradedFetches = w.degraded
	report.StragglerSkips = w.skips
	w.obs.degraded.Add(float64(w.degraded))
	w.obs.skips.Add(float64(w.skips))

	wire := w.commWire.Seconds()
	blocked := w.commBlocked.Seconds()
	report.CommWireSeconds = wire
	report.CommBlockedSeconds = blocked
	w.obs.commWire.Add(wire)
	w.obs.commBlocked.Add(blocked)
	util := 0.0
	if wire > 0 {
		util = (wire - blocked) / wire
		if util < 0 {
			util = 0
		}
	}
	report.OverlapUtilization = util
	w.obs.overlapUtil.Set(util)

	w.obs.fpBits.Set(float64(report.FPBits))
	w.obs.predFrac.Set(report.PredictedFraction)
	w.obs.epochs.Inc()

	for l, norm := range report.ResidualL2 {
		if l < len(w.obs.residual) {
			w.obs.residual[l].Set(norm)
		}
	}
}

// storeLayerBits records the codec width last served for layer l; handler
// goroutines call it, RunEpoch snapshots it into the report.
func (w *Worker) storeLayerBits(l, bits int) {
	if l >= 0 && l < len(w.layerBits) {
		w.layerBits[l].Store(int64(bits))
	}
}

// layerBitsSnapshot reports the codec width in effect per embedding layer
// (index 0 ↔ layer 1). Layers no requester asked for this epoch fall back
// to the scheme's nominal width.
func (w *Worker) layerBitsSnapshot(L, currentBits int) []int {
	fallback := 32 // SchemeRaw ships float32
	switch w.cfg.Opts.FPScheme {
	case SchemeEC:
		fallback = currentBits
	case SchemeCompress:
		fallback = w.cfg.Opts.FPBits
	}
	out := make([]int, 0, L-1)
	for l := 1; l < L; l++ {
		if v := w.layerBits[l].Load(); v > 0 {
			out = append(out, int(v))
		} else {
			out = append(out, fallback)
		}
	}
	return out
}

// joinTimed joins a fired batch and accounts the overlap window: wire time
// is the batch's launch-to-completion span (stamped by the batch
// goroutine before the channel send, so reading it here is race-free),
// blocked time is how long the epoch goroutine actually waited at the
// join. Their difference is the comm the overlap window hid.
func (w *Worker) joinTimed(p *pendingGhost) []transport.Result {
	if p.done == nil {
		return nil
	}
	start := time.Now()
	results := <-p.done
	blocked := time.Since(start)
	wire := p.doneAt.Sub(p.firedAt)
	if wire < blocked {
		wire = blocked
	}
	w.commWire += wire
	w.commBlocked += blocked
	return results
}
