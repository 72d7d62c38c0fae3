package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ecgraph/internal/datasets"
	"ecgraph/internal/graph"
	"ecgraph/internal/nn"
	"ecgraph/internal/obs"
	"ecgraph/internal/partition"
	"ecgraph/internal/serve"
	"ecgraph/internal/tensor"
	"ecgraph/internal/transport"
)

// serveProbes are the outside-in probes of a traced serving phase.
type serveProbes struct {
	meter *meternet
	reg   *obs.Registry
}

// verifier checks served answers against a local full-graph forward pass of
// the model version that answered. Safe for concurrent use.
type verifier struct {
	ref map[uint32]*tensor.Matrix // version → logits of every vertex

	vertices, badLogits, badClass atomic.Int64

	// The first answer that was wrong and the first that was not given, for
	// the report.
	wrongOnce, refusedOnce sync.Once
	wrong, refused         string
}

// accept implements the check the load generators call: the request must
// succeed, every vertex must be OK, and its logits must match the
// reference within 1e-4; class mismatches are only counted, because a
// near-tie may flip under a different summation order.
func (v *verifier) accept(res []serve.Result, err error) bool {
	if err != nil {
		v.refusedOnce.Do(func() { v.refused = fmt.Sprintf("request: %v", err) })
		return false
	}
	ok := true
	for _, r := range res {
		ref := v.ref[r.Version]
		if !r.OK || ref == nil {
			v.refusedOnce.Do(func() { v.refused = fmt.Sprintf("vertex %d at version %d: %s", r.Vertex, r.Version, r.Err) })
			ok = false
			continue
		}
		v.vertices.Add(1)
		want := ref.Row(r.Vertex)
		best := 0
		for j, x := range want {
			if x > want[best] {
				best = j
			}
			if got := r.Logits[j]; math.Abs(float64(got-x)) > 1e-4*math.Max(1, math.Abs(float64(x))) && ok {
				v.badLogits.Add(1)
				v.wrongOnce.Do(func() {
					v.wrong = fmt.Sprintf("vertex %d at version %d: logit %d is %g, the full-graph forward pass has %g", r.Vertex, r.Version, j, got, x)
				})
				ok = false
			}
		}
		if r.Class != best {
			v.badClass.Add(1)
		}
	}
	return ok
}

// err reports whether the answers that were given were right.
func (v *verifier) err() error {
	n := v.vertices.Load()
	if bad := v.badLogits.Load(); bad > 0 {
		return fmt.Errorf("%d of %d served vertices differ from the full-graph forward pass by more than 1e-4; the first: %s", bad, n, v.wrong)
	}
	if bad := v.badClass.Load(); float64(bad) > 0.001*float64(n) {
		return fmt.Errorf("%d of %d served classes are not the reference arg-max (limit 0.1%%)", bad, n)
	}
	return nil
}

// stepResult is one open-loop step.
type stepResult struct {
	rate      float64
	scheduled int
	fired     int
	bad       int
	start     time.Time
	recs      []reqRecord
	latMS     []float64 // ascending, acceptable answers only
	tails     []float64 // each window's tail latency
	lateTails []float64 // each window's p99 generator lateness
}

// valid: the generator offered at least 99 % of the schedule. A step that
// fell short measured a lower rate than it is labelled with.
func (s *stepResult) valid() bool {
	return float64(s.fired) >= 0.99*float64(s.scheduled)
}

// tailMS is the reported tail latency: the quiet quartile over the step's
// windows of each window's tail — p99 where the window has ten samples
// beyond it, the next lower quantile that does otherwise. One descheduling
// of the process (they last tens of milliseconds on a shared two-core
// machine) owns the tail of the window it falls into and no other.
func (s *stepResult) tailMS() float64 { return quiet(s.tails) }

// tailQ is the quantile tailMS reports.
func (s *stepResult) tailQ() float64 { return tailQuantile(len(s.latMS) / len(s.tails)) }

// lateMS is how late the generator ran, by the same rule.
func (s *stepResult) lateMS() float64 { return median(s.lateTails) }

// windowSamples is the size of a window: the fewest samples whose p99 has
// ten beyond it.
const windowSamples = 1000

// windowTails cuts v, in the order the requests were due, into as many
// equal windows of at least windowSamples as it holds (one, if it holds
// fewer) and returns each window's tail.
func windowTails(v []float64) []float64 {
	k := len(v) / windowSamples
	if k < 1 {
		k = 1
	}
	tails := make([]float64, k)
	for i := range tails {
		win := sorted(v[i*len(v)/k : (i+1)*len(v)/k])
		tails[i] = percentile(win, tailQuantile(len(win)))
	}
	return tails
}

// meetsSLO is the ladder's pass rule: every request offered and answered
// correctly, tail latency within the limit, and a generator on time.
func (s *stepResult) meetsSLO() bool {
	return s.valid() && s.bad == 0 && len(s.latMS) > 0 &&
		s.tailMS() <= ms(sloP99) && s.lateMS() < ms(sloLateP99)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func newStepResult(rate float64, recs []reqRecord, start time.Time) *stepResult {
	s := &stepResult{rate: rate, scheduled: len(recs), recs: recs, start: start}
	var late []float64
	for _, r := range recs {
		if !r.fired {
			continue
		}
		s.fired++
		late = append(late, ms(r.late))
		if r.bad {
			s.bad++
		} else {
			s.latMS = append(s.latMS, ms(r.lat))
		}
	}
	s.tails, s.lateTails = windowTails(s.latMS), windowTails(late)
	s.latMS = sorted(s.latMS)
	return s
}

// serveRun is what the serving phase looked like from outside.
type serveRun struct {
	buildS, precomputeS float64        // serve.New; the first SwapModel
	swapS               float64        // the hot swap under load
	steps               []*stepResult  // the ladder, at steady state
	swap                *stepResult    // the step the swap interrupts
	postSwapMS          []float64      // ascending latencies of the swap step's requests due after the swap began
	bursts              [][]bulkRecord // the closed loop: one burst after each ladder step
	burstLength         time.Duration
	cacheEntries        int
	verify              *verifier
}

// openSteps lists every open-loop step: the ladder, then the swap step.
func (r *serveRun) openSteps() []*stepResult {
	return append(r.steps[:len(r.steps):len(r.steps)], r.swap)
}

// bulk lists every request of every closed-loop burst.
func (r *serveRun) bulk() []bulkRecord {
	var all []bulkRecord
	for _, b := range r.bursts {
		all = append(all, b...)
	}
	return all
}

func (r *serveRun) attempted() int {
	n := len(r.bulk())
	for _, s := range r.openSteps() {
		n += s.scheduled
	}
	return n
}

// failed counts requests that were answered wrongly, rejected, failed, or
// never offered.
func (r *serveRun) failed() int {
	n := r.bulkBad()
	for _, s := range r.openSteps() {
		n += s.bad + s.scheduled - s.fired
	}
	return n
}

// sloRate is the highest ladder rate that met the SLO with every lower
// rate meeting it too; 0 if the first one fails.
func (r *serveRun) sloRate() float64 {
	best := 0.0
	for _, s := range r.steps {
		if !s.meetsSLO() {
			break
		}
		best = s.rate
	}
	return best
}

func (r *serveRun) bulkBad() int {
	n := 0
	for _, b := range r.bulk() {
		if b.bad {
			n++
		}
	}
	return n
}

// bulkVPS is the closed loop's throughput in vertices per second: the
// median burst's. The bursts are seconds apart, so a slow spell of the
// machine (they last a second or two) costs one of them.
func (r *serveRun) bulkVPS() float64 { return median(r.burstVPS()) }

// burstVPS is each burst's throughput in vertices per second.
func (r *serveRun) burstVPS() []float64 {
	rates := make([]float64, len(r.bursts))
	for i, b := range r.bursts {
		rates[i] = burstRate(b, r.burstLength) * bulkVertices
	}
	return rates
}

// newService builds the serving deployment: CLI defaults (2 ms batch
// window, 256-vertex batches, raw 32-bit ghost rows), hash-partitioned
// shards, and the front on the last node of an emulated link.
func newService(w workload, d *datasets.Dataset, probes *serveProbes) (*serve.Service, error) {
	nodes := serveShards + 1
	var base transport.Network = newLinknet(transport.NewInProc(nodes), nodes, w.Bits)
	cfg := serve.Config{
		Graph: d.Graph, Features: d.Features,
		Shards: serveShards, Partitioner: partition.Hash{},
		QueueDepth: admissionDepth,
	}
	if probes != nil {
		probes.meter = newMeternet(base, "")
		probes.reg = obs.NewRegistry()
		base, cfg.Metrics = probes.meter, probes.reg
	}
	// serve.New's own stack, over the emulated wire instead of a bare one.
	cfg.Net = transport.NewStack(base, transport.WithConcurrency(serveShards), transport.WithNodes(nodes))
	return serve.New(cfg)
}

// setupService measures one serving set-up and tears it down again.
func setupService(w workload, d *datasets.Dataset, model *nn.Model) (seconds float64, err error) {
	start := time.Now()
	svc, err := newService(w, d, nil)
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	if err := svc.SwapModel(model); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// runServe serves w's graph with the model the workload trained: warm-up,
// the open-loop ladder at steady state with a closed-loop burst of bulk
// scoring after each step, and one more open-loop step during which the
// model is redeployed (a hot swap to a second version of the same weights).
// The swap has a step of its own because it stalls a two-core machine for
// long enough to own any p99 it falls into; its cost is reported by itself.
func runServe(w workload, d *datasets.Dataset, trained *nn.Model, seed int64, probes *serveProbes) (*serveRun, error) {
	run := &serveRun{verify: &verifier{ref: map[uint32]*tensor.Matrix{}}}
	acts := trained.Forward(graph.Normalize(d.Graph), d.Features)
	logits := acts.H[len(acts.H)-1]
	run.verify.ref[1], run.verify.ref[2] = logits, logits // the service numbers versions from 1

	// Trainer and server are separate processes in a deployment; here they
	// share a heap, so the trainer's garbage is collected before serving
	// starts, not in the middle of a latency measurement.
	runtime.GC()

	start := time.Now()
	svc, err := newService(w, d, probes)
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	run.buildS = time.Since(start).Seconds()
	start = time.Now()
	if err := svc.SwapModel(trained); err != nil {
		return nil, err
	}
	run.precomputeS = time.Since(start).Seconds()

	rng := rand.New(rand.NewSource(seed))
	n := d.Graph.N
	offer := func(st step) *stepResult {
		length := time.Duration(st.Seconds * float64(time.Second))
		recs, began := openLoop(svc.Predict, run.verify.accept, dueTimes(st.Rate, st.Seconds), length, rng, n)
		return newStepResult(st.Rate, recs, began)
	}
	// Warm-up, unrecorded: the batcher, the pools and the ghost cache reach
	// steady state.
	offer(step{Rate: w.Ladder[0].Rate, Seconds: warmSeconds})
	// Each ladder step is followed by a burst of bulk scoring, an equal share
	// of the closed loop's time.
	run.burstLength = time.Duration(w.BulkSeconds / float64(len(w.Ladder)) * float64(time.Second))
	for i, st := range w.Ladder {
		run.steps = append(run.steps, offer(st))
		run.bursts = append(run.bursts, closedLoop(svc.Predict, run.verify.accept,
			bulkClients, bulkVertices, run.burstLength, seed+int64(i*bulkClients), n))
	}
	run.cacheEntries = svc.CacheStats() // before the swap empties it

	swapped := make(chan error, 1)
	var swapStart time.Time
	go func() {
		time.Sleep(time.Duration(w.Swap.Seconds / 3 * float64(time.Second)))
		swapStart = time.Now()
		err := svc.SwapModel(trained)
		run.swapS = time.Since(swapStart).Seconds()
		swapped <- err
	}()
	run.swap = offer(w.Swap)
	if err := <-swapped; err != nil {
		return nil, fmt.Errorf("hot swap: %w", err)
	}
	from := swapStart.Sub(run.swap.start)
	for _, r := range run.swap.recs {
		if r.fired && !r.bad && r.due >= from {
			run.postSwapMS = append(run.postSwapMS, ms(r.lat))
		}
	}
	run.postSwapMS = sorted(run.postSwapMS)
	return run, nil
}

// warmSeconds of the lowest rate precede the ladder.
const warmSeconds = 0.3
