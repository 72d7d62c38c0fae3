package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"ecgraph/internal/core"
	"ecgraph/internal/datasets"
	"ecgraph/internal/graph"
	"ecgraph/internal/ps"
	"ecgraph/internal/worker"
)

// outcome is one run of one workload: what the last line of output says.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string // failed correctness checks; empty means correct
	notes     []string // detail for the human reader: the load steps, the target
	checksum  uint64
}

func (o *outcome) problem(format string, args ...interface{}) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// runOptions are the knobs of one run that are not part of the workload.
type runOptions struct {
	seed   int64
	traced bool
	outDir string // where the traced run leaves trace-<workload>.json
	// setupReps is how often the untraced run sets up and replayFor how long
	// the traced run replays each kernel; the smoke path cuts both.
	setupReps int
	replayFor time.Duration
}

// fullOptions are the options of a measuring run.
func fullOptions(seed int64, traced bool, outDir string) runOptions {
	return runOptions{seed: seed, traced: traced, outDir: outDir, setupReps: setupReps, replayFor: replayFor}
}

// smokeOptions are the options of the smoke path.
func smokeOptions(seed int64, traced bool, outDir string) runOptions {
	return runOptions{seed: seed, traced: traced, outDir: outDir, setupReps: 1, replayFor: time.Millisecond}
}

// runWorkload runs w end to end: train over the emulated link, then serve
// the trained model. Untraced it reports the end-to-end metrics, traced the
// per-layer ones.
func runWorkload(w workload, opt runOptions) (*outcome, error) {
	if opt.traced {
		return runTraced(w, opt)
	}
	return runUntraced(w, opt)
}

func runUntraced(w workload, opt runOptions) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}

	// Set-up, several times over: everything before the first epoch can
	// begin (generation, partition, topology, ghost features over the link,
	// parameter servers), and further down everything before the first
	// request can be offered (shard build, the first model's precompute).
	// The last repetition is the run that goes on to be measured.
	var trainSetup, serveSetup []float64
	var d *datasets.Dataset
	var run *trainRun
	for rep := 1; rep <= opt.setupReps; rep++ {
		start := time.Now()
		var err error
		if d, err = w.dataset(opt.seed); err != nil {
			return nil, err
		}
		timed := 0
		if rep == opt.setupReps {
			timed = w.TimedEpochs
		}
		if run, err = runTrain(w, d, opt.seed, timed, nil); err != nil {
			return nil, err
		}
		trainSetup = append(trainSetup, run.hooks[0].Sub(start).Seconds())
	}
	checkTraining(w, run, out)
	if w.FullGraphCheck {
		ref, _ := fullGraph(w, d, opt.seed, fullGraphEpochs)
		if err := run.checkAgainstFullGraph(ref); err != nil {
			out.problem("%v", err)
		}
	}
	trained, err := core.FinalModel(run.cfg, run.res)
	if err != nil {
		return nil, err
	}
	for rep := 1; rep < opt.setupReps; rep++ {
		s, err := setupService(w, d, trained)
		if err != nil {
			return nil, err
		}
		serveSetup = append(serveSetup, s)
	}
	sv, err := runServe(w, d, trained, opt.seed, nil)
	if err != nil {
		return nil, err
	}
	serveSetup = append(serveSetup, sv.buildS+sv.precomputeS)
	checkServing(sv, out)

	m := out.metrics
	m["setup_s"] = median(trainSetup) + median(serveSetup)
	m["epoch_ms"] = quiet(run.groupMeans())
	var bytes float64
	for _, t := range run.timedEpochs() {
		bytes += float64(run.res.Epochs[t].Bytes)
	}
	m["wire_mb_per_epoch"] = bytes / float64(run.timed) / 1e6
	m["test_acc"] = run.res.TestAccuracy
	at := sv.steps[reportStep]
	m["serve_p50_ms"] = percentile(at.latMS, 0.5)
	m["serve_p99_ms"] = at.tailMS()
	m["peak_rss_mb"] = peakRSSMB()
	return out, nil
}

// checkTraining applies the training correctness checks to a full-length
// run and counts its operations: one per epoch, one for reaching the target.
func checkTraining(w workload, run *trainRun, out *outcome) {
	out.checksum = run.checksum()
	out.attempted += run.epochs + 1
	checkEpochs(run, out)
	var wall []float64
	for _, t := range run.timedEpochs() {
		wall = append(wall, run.epochMS(t))
	}
	asc := sorted(wall)
	at := run.epochsToTarget(w.Target)
	out.notes = append(out.notes, fmt.Sprintf(
		"%d timed epochs: mean %.1f ms, p50 %.1f, p90 %.1f, max %.1f; trend-group means %.1f; validation accuracy %.2f first reached at epoch %d; best %.4f at epoch %d",
		run.timed, mean(wall), percentile(asc, 0.5), percentile(asc, 0.9), percentile(asc, 1), run.groupMeans(), w.Target, at, run.res.BestVal, run.res.BestEpoch))
	if at < 0 {
		out.failed++
		out.problem("validation accuracy never reached %.2f in %d epochs; the best was %.4f", w.Target, run.epochs, run.res.BestVal)
	}
	if acc := run.res.TestAccuracy; acc < w.AccFloor {
		out.problem("test accuracy %.4f is below the floor %.2f", acc, w.AccFloor)
	}
}

// checkEpochs fails every epoch with a non-finite loss or a degraded fetch.
func checkEpochs(run *trainRun, out *outcome) {
	if bad := run.failedEpochs(); bad > 0 {
		out.failed += bad
		out.problem("%d epochs had a non-finite loss or a degraded ghost fetch", bad)
	}
}

// checkServing applies the serving correctness checks and counts one
// operation per request.
func checkServing(sv *serveRun, out *outcome) {
	for _, s := range sv.openSteps() {
		out.notes = append(out.notes, fmt.Sprintf(
			"open loop %4.0f req/s: %d due, %d offered, %d bad; p50 %.2f ms, p%g %.2f ms (quiet quartile of %d windows), max %.2f ms; generator late %.3f ms",
			s.rate, s.scheduled, s.fired, s.bad, percentile(s.latMS, 0.5), 100*s.tailQ(), s.tailMS(), len(s.tails),
			percentile(s.latMS, 1), s.lateMS()))
	}
	out.notes = append(out.notes, fmt.Sprintf("hot swap took %.1f ms; closed loop: %d requests of %d vertices, %d bad, bursts of %.0f vertices/s",
		sv.swapS*1e3, len(sv.bulk()), bulkVertices, sv.bulkBad(), sv.burstVPS()))
	// A request that was refused, failed or never offered is a failed
	// operation; only an answer that was given and is wrong is incorrect.
	out.attempted += sv.attempted()
	out.failed += sv.failed()
	if n := sv.failed(); n > 0 {
		out.notes = append(out.notes, fmt.Sprintf("%d of %d requests failed, were rejected, not offered, or answered wrongly; the first: %s",
			n, sv.attempted(), sv.verify.refused))
	}
	if err := sv.verify.err(); err != nil {
		out.problem("%v", err)
	}
	// A step the generator could not offer in full says something about the
	// machine, not about the program's answers: its unoffered requests are
	// failed operations and it cannot carry the SLO rate, and that is all.
	for _, s := range sv.openSteps() {
		if !s.valid() {
			out.notes = append(out.notes, fmt.Sprintf("INVALID STEP: the generator offered %d of %d requests at %.0f req/s", s.fired, s.scheduled, s.rate))
		}
	}
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// tracedShare is the traced run's length as a share of the untraced one.
const tracedShare = 0.25

func runTraced(w workload, opt runOptions) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	timed := w.TimedEpochs
	if timed > ttr {
		timed = roundToTtr(float64(timed) * tracedShare)
	}

	start := time.Now()
	d, err := w.dataset(opt.seed)
	if err != nil {
		return nil, err
	}
	m["datasets.generate_ms"] = ms(time.Since(start))

	// The same seed twice: untraced at full length for the reference epoch
	// time, trajectory and time to target, then a quarter of it with every
	// probe attached. Tracing must not change a single loss.
	plain, err := runTrain(w, d, opt.seed, w.TimedEpochs, nil)
	if err != nil {
		return nil, err
	}
	checkTraining(w, plain, out)
	probes := &trainProbes{}
	run, err := runTrain(w, d, opt.seed, timed, probes)
	if err != nil {
		return nil, err
	}
	out.attempted += run.epochs
	checkEpochs(run, out)
	if a, b := plain.lossChecksum(run.epochs), run.lossChecksum(run.epochs); a != b {
		out.problem("tracing changed the trajectory: loss checksum %016x untraced, %016x traced", a, b)
	}
	var plainMS float64
	for _, t := range run.timedEpochs() {
		plainMS += plain.epochMS(t)
	}
	m["trace.overhead_frac"] = run.windowMS()/plainMS - 1 // means: a budget, not a gate
	at := plain.epochsToTarget(w.Target)
	m["core.epochs_to_target"] = float64(at)
	m["core.time_to_target_s"] = 0
	if at >= 0 {
		reached := plain.returned // the accuracy is known when the epoch ends
		if at+1 < len(plain.hooks) {
			reached = plain.hooks[at+1]
		}
		m["core.time_to_target_s"] = reached.Sub(plain.hooks[0]).Seconds()
	}

	_, topo := replaySetup(w, d, m)
	adj := graph.Normalize(d.Graph)
	replayKernels(w, d, adj, topo, opt.replayFor, m)
	ref, epochMS := fullGraph(w, d, opt.seed, fullGraphEpochs)
	m["nn.fullgraph_epoch_ms"] = epochMS
	m["nn.fullgraph_test_acc"] = ref.TestAccuracy
	if w.FullGraphCheck {
		if err := run.checkAgainstFullGraph(ref); err != nil {
			out.problem("%v", err)
		}
	}

	events, err := trainMetrics(w, run, probes, m)
	if err != nil {
		return nil, err
	}

	trained, err := core.FinalModel(run.cfg, run.res)
	if err != nil {
		return nil, err
	}
	sp := &serveProbes{}
	sv, err := runServe(w, d, trained, opt.seed, sp)
	if err != nil {
		return nil, err
	}
	checkServing(sv, out)
	serveMetrics(w, sv, sp, m)

	if opt.outDir != "" {
		path := filepath.Join(opt.outDir, "trace-"+w.Name+".json")
		err := writeTrace(path, traceFile{
			Workload: w.Name, Seed: opt.seed,
			Spans: fold(probes.rec.spans), Instants: probes.rec.instants, Events: events,
		})
		if err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return out, nil
}

// spanKinds maps the worker's span names ("fp2 collect", "bp1 owned") onto
// the per-layer metric they feed; the layer number is summed over.
var spanKinds = map[string]string{
	"fp owned": "worker.fp_owned_ms", "fp collect": "worker.fp_collect_wait_ms", "fp fold": "worker.fp_fold_ms",
	"bp owned": "worker.bp_owned_ms", "bp collect": "worker.bp_collect_wait_ms", "bp fold": "worker.bp_fold_ms",
}

// spanKind strips the layer number from a worker span's name.
func spanKind(name string) string {
	pass, phase, ok := strings.Cut(name, " ")
	if !ok || len(pass) < 3 {
		return ""
	}
	return spanKinds[pass[:2]+" "+phase]
}

// trainMetrics folds the traced training run's probes into per-layer
// metrics. Per-epoch times are means over the timed window; where several
// workers run in parallel the slowest one counts, as it bounds the epoch.
func trainMetrics(w workload, run *trainRun, p *trainProbes, m map[string]float64) ([]json.RawMessage, error) {
	res := run.res
	n := float64(run.timed)
	window := run.timedEpochs()

	// core: the engine's own view next to the hook-to-hook clock.
	var epochMS, steady, sync []float64
	var eval, raw, sim, comm, calls float64
	var degraded int
	for _, t := range window {
		e := res.Epochs[t]
		wall := run.epochMS(t)
		epochMS = append(epochMS, wall)
		if (t+1)%ttr == 0 { // ReqEC-FP's trend boundary: exact rows on the wire
			sync = append(sync, wall)
		} else {
			steady = append(steady, wall)
		}
		eval += wall - e.RawComputeSeconds*1e3
		raw += e.RawComputeSeconds * 1e3
		sim += e.SimSeconds * 1e3
		comm += e.CommSeconds * 1e3
		calls += float64(e.Messages)
		degraded += e.DegradedFetches
	}
	asc := sorted(epochMS)
	m["core.preprocess_s"] = res.PreprocessSeconds
	m["core.eval_ms"] = eval / n
	m["core.raw_compute_ms"] = raw / n
	m["core.sim_epoch_ms"] = sim / n
	m["core.steady_epoch_ms"] = mean(steady)
	m["core.sync_epoch_ms"] = mean(sync)
	m["core.epoch_p50_ms"] = percentile(asc, 0.5)
	m["core.epoch_p90_ms"] = percentile(asc, 0.9)
	m["core.alloc_mb_per_epoch"] = float64(p.memAt[1].TotalAlloc-p.memAt[0].TotalAlloc) / 1e6 / n
	m["core.gc_pause_ms_per_epoch"] = float64(p.memAt[1].PauseTotalNs-p.memAt[0].PauseTotalNs) / 1e6 / n
	m["partition.cut_frac"] = res.PartitionStats.CutFraction
	m["worker.degraded_fetches"] = float64(degraded)
	m["transport.calls_per_epoch"] = calls / n
	m["transport.sim_comm_ms"] = comm / n
	var retries int64
	for _, e := range res.Epochs {
		retries += e.Retries
	}
	m["transport.retries"] = float64(retries)

	// worker: the spans it emits, on the critical worker of each epoch.
	bounds := make([]float64, len(run.hooks))
	for t, at := range run.hooks {
		bounds[t] = at.Sub(p.base).Seconds()
	}
	p.rec.spans = withEpochSpans(p.rec.spans, bounds, w.Workers)
	budget := workerBudget(fold(p.rec.spans), bounds, window)
	var spanned float64
	for _, kind := range spanKinds {
		m[kind] = budget[kind]
		spanned += m[kind]
	}
	m["worker.other_ms"] = budget["worker.other_ms"]

	// transport, ps and the responder side of the exchange, from the meter
	// and the link between the first and last hook of the window.
	meter := p.meterAt[1].sub(p.meterAt[0])
	mb := func(method string) float64 { return float64(total(meter.calls, method).bytes) / 1e6 / n }
	m["transport.getH_mb"] = mb(worker.MethodGetH)
	m["transport.getG_mb"] = mb(worker.MethodGetG)
	m["transport.ps_mb"] = mb(ps.MethodPull) + mb(ps.MethodPush)
	m["worker.getH_serve_ms"] = ms(total(meter.handlers, worker.MethodGetH).busy) / n
	m["worker.getG_serve_ms"] = ms(total(meter.handlers, worker.MethodGetG).busy) / n
	m["ps.pull_ms"] = ms(worst(meter.calls, ps.MethodPull)) / n
	m["ps.push_ms"] = ms(worst(meter.calls, ps.MethodPush)) / n
	m["ps.push_serve_ms"] = ms(total(meter.handlers, ps.MethodPush).busy) / n
	m["ps.barrier_skew_ms"] = ms(p.meter.arrivalSkew(w.Workers, run.hooks[warmEpochs]))
	m["ps.param_kb"] = float64(len(res.FinalParams)*4) / 1024
	m["worker.ghost_features_ms"] = ms(worst(p.meter.snapshot().calls, worker.MethodGetX))
	var busiest linkAcct
	for node, b := range p.linkAt[1] {
		a := p.linkAt[0][node]
		d := linkAcct{queue: b.queue - a.queue, serialize: b.serialize - a.serialize, rtt: b.rtt - a.rtt}
		if d.queue+d.serialize+d.rtt > busiest.queue+busiest.serialize+busiest.rtt {
			busiest = d
		}
	}
	m["transport.link_serialize_ms"] = ms(busiest.serialize) / n
	m["transport.link_rtt_ms"] = ms(busiest.rtt) / n
	m["transport.link_queue_ms"] = ms(busiest.queue) / n

	// compress: what the exchange would have moved as raw float32 rows —
	// every ghost row once per exchanged layer, H^1…H^{L-1} forward and
	// G^2…G^L backward — over what it did move.
	dims := modelDims(w, run.cfg.Dataset)
	var width int
	for l := 1; l < len(dims)-1; l++ {
		width += dims[l] + dims[l+1]
	}
	rawMB := m["partition.ghost_rows"] * float64(width) * 4 / 1e6
	m["compress.wire_ratio"] = rawMB / (m["transport.getH_mb"] + m["transport.getG_mb"])

	// ec: from the program's own per-worker epoch events.
	var events []json.RawMessage
	var predicted, records, bits, layers float64
	sc := bufio.NewScanner(bytes.NewReader(p.events.Bytes()))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		events = append(events, line)
		var ev core.EpochEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("epoch event: %w", err)
		}
		if ev.Epoch < warmEpochs || ev.Epoch >= warmEpochs+run.timed {
			continue
		}
		records++
		predicted += ev.PredictedFraction
		for _, b := range ev.LayerFPBits {
			bits += float64(b)
			layers++
		}
	}
	m["ec.predicted_frac"] = predicted / math.Max(records, 1)
	m["ec.fp_bits_mean"] = bits / math.Max(layers, 1)

	// The budget: the spans, the parameter traffic and the evaluation should
	// account for the epoch; what is left is unattributed.
	m["trace.budget_gap_frac"] = 1 - (spanned+m["ps.pull_ms"]+m["ps.push_ms"]+m["core.eval_ms"])/(run.windowMS()/n)
	return events, nil
}

// withEpochSpans adds one synthetic "epoch" span per epoch and worker track
// (pid 1+worker, like the worker's own spans), from hook to hook, so that
// what none of a worker's spans covers becomes the epoch span's self time.
func withEpochSpans(spans []span, bounds []float64, workers int) []span {
	for t := 0; t+1 < len(bounds); t++ {
		for id := 0; id < workers; id++ {
			spans = append(spans, span{
				Name: fmt.Sprintf("epoch %d", t), Cat: "epoch", Pid: 1 + id,
				Start: bounds[t], Dur: bounds[t+1] - bounds[t], Parent: -1,
			})
		}
	}
	return spans
}

// workerBudget turns folded spans into the worker layer's per-epoch budget
// in milliseconds, averaged over the epochs in window. Each epoch counts its
// critical worker only — the one whose own spans cover most of the epoch —
// so that the kinds add up to the epoch: a worker that waits at the barrier
// for a slower one is not on the critical path. worker.other_ms is the
// critical worker's epoch self time: parameter pull and push, the loss, and
// whatever has no span.
func workerBudget(folded []span, bounds []float64, window []int) map[string]float64 {
	type key struct{ epoch, pid int }
	perEpoch := map[key]map[string]float64{}
	for _, s := range folded {
		if s.Pid == 0 {
			continue
		}
		kind := spanKind(s.Name)
		if s.Cat == "epoch" {
			kind = "worker.other_ms"
		}
		if kind == "" {
			continue
		}
		t := sort.SearchFloat64s(bounds, s.Start)
		if t == len(bounds) || bounds[t] != s.Start {
			t-- // the epoch in progress at s.Start
		}
		k := key{t, s.Pid}
		if perEpoch[k] == nil {
			perEpoch[k] = map[string]float64{}
		}
		perEpoch[k][kind] += s.Self * 1e3
	}
	sums := map[string]float64{}
	for _, t := range window {
		var critical map[string]float64
		least := math.Inf(1)
		for k, kinds := range perEpoch {
			if other, ok := kinds["worker.other_ms"]; ok && k.epoch == t && other < least {
				least, critical = other, kinds
			}
		}
		for kind, v := range critical {
			sums[kind] += v
		}
	}
	for kind := range sums {
		sums[kind] /= float64(len(window))
	}
	return sums
}

// serveMetrics folds the traced serving phase into per-layer metrics.
func serveMetrics(w workload, sv *serveRun, p *serveProbes, m map[string]float64) {
	m["serve.precompute_ms"] = sv.precomputeS * 1e3
	m["serve.swap_ms"] = sv.swapS * 1e3
	m["serve.post_swap_p99_ms"] = percentile(sv.postSwapMS, tailQuantile(len(sv.postSwapMS)))
	m["serve.p99_ms_r250"] = sv.steps[0].tailMS()
	m["serve.p99_ms_r2000"] = sv.steps[len(sv.steps)-1].tailMS()
	m["serve.slo_rate_rps"] = sv.sloRate()
	var scheduled, bad int
	var late float64
	for _, s := range sv.openSteps() {
		scheduled += s.scheduled
		bad += s.bad + s.scheduled - s.fired
		late = math.Max(late, s.lateMS())
	}
	m["serve.rejected_frac"] = float64(bad) / float64(scheduled)
	m["serve.gen_late_p99_ms"] = late
	var bulk float64
	for _, b := range sv.bulk() {
		bulk += ms(b.lat)
	}
	m["serve.bulk_batch_ms"] = bulk / math.Max(float64(len(sv.bulk())), 1)
	m["serve.bulk_vps"] = sv.bulkVPS()
	m["serve.cache_entries"] = float64(sv.cacheEntries)

	// The service's own registry and the meter under its stack.
	batches := p.reg.Histogram("ecgraph_serve_batch_size", "", nil)
	m["serve.batch_size_mean"] = batches.Sum() / math.Max(float64(batches.Count()), 1)
	misses := p.reg.CounterVec("ecgraph_serve_cache_total", "", "event").With("miss").Value()
	answered := p.reg.CounterVec("ecgraph_serve_requests_total", "", "result").With("ok").Value()
	m["serve.ghost_fetch_rows_per_req"] = misses / math.Max(answered, 1)
	calls := total(p.meter.snapshot().calls, "sv.batch")
	m["serve.shard_call_ms"] = ms(calls.busy) / math.Max(float64(calls.calls), 1)
}
