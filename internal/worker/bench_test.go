package worker

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ecgraph/internal/datasets"
	"ecgraph/internal/graph"
	"ecgraph/internal/nn"
	"ecgraph/internal/obs"
	"ecgraph/internal/ps"
	"ecgraph/internal/transport"
)

// benchLatency is the injected per-remote-call latency. Real deployments pay
// it on every RPC; the concurrent exchange hides it by overlapping calls,
// the sequential one pays peers × latency per layer.
const benchLatency = 2 * time.Millisecond

// delayNet delays every remote call by a fixed latency, modelling network
// round-trip time over the instantaneous in-proc transport. CallMulti routes
// through the wrapper's own Call so a Concurrent wrapper above it overlaps
// the sleeps — exactly what it would overlap on real sockets.
type delayNet struct {
	transport.Network
	d time.Duration
}

func (n *delayNet) Call(src, dst int, method string, req []byte) ([]byte, error) {
	if src != dst {
		time.Sleep(n.d)
	}
	return n.Network.Call(src, dst, method, req)
}

func (n *delayNet) CallMulti(src int, calls []transport.Call) []transport.Result {
	return transport.SequentialMulti(n, src, calls)
}

// skipUnlessBench keeps the wall-clock gates out of plain `go test ./...`,
// which must pass on any machine and leave the tree clean: they assert
// timing ratios and rewrite the tracked BENCH_*.json, so they run only in
// the bench lane (CI's bench-exchange job sets ECGRAPH_BENCH=1).
func skipUnlessBench(t *testing.T) {
	t.Helper()
	if os.Getenv("ECGRAPH_BENCH") != "1" {
		t.Skip("wall-clock gate: set ECGRAPH_BENCH=1 to run")
	}
}

// benchModel parameterises the benchmark cluster's model and exchange
// scheme; the zero value is filled in by benchCluster with the historical
// defaults (GCN, one 16-unit hidden layer, EC 2-bit exchange).
type benchModel struct {
	kind    nn.Kind
	hidden  []int // hidden-layer widths; input/output dims come from the dataset
	opts    Options
	metrics *obs.Registry
	tracer  *obs.Tracer
}

var defaultBenchModel = benchModel{
	kind:   nn.KindGCN,
	hidden: []int{16},
	opts: Options{
		FPScheme: SchemeEC, BPScheme: SchemeEC,
		FPBits: 2, BPBits: 2, Ttr: 10,
	},
}

// benchCluster wires nWorkers workers and one parameter server over net,
// runs epochs epochs with all workers in parallel (as the engine does), and
// returns the total wall-clock time of the epoch loop.
func benchCluster(tb testing.TB, d *datasets.Dataset, net transport.Network, nWorkers, epochs int, m benchModel) time.Duration {
	tb.Helper()
	adj := graph.Normalize(d.Graph)
	assign := make([]int, d.Graph.N)
	for v := range assign {
		assign[v] = v % nWorkers
	}
	topo := BuildTopology(d.Graph, assign, nWorkers)

	dims := append(append([]int{d.NumFeatures()}, m.hidden...), d.NumClasses)
	template := nn.NewModel(m.kind, dims, 1)
	flat := template.FlattenParams()
	ranges := ps.Ranges(len(flat), 1)
	net.Register(nWorkers, ps.NewServer(flat, 0.01, nWorkers).Handler())

	nTrain := len(d.TrainIdx())
	workers := make([]*Worker, nWorkers)
	for i := range workers {
		workers[i] = New(Config{
			ID: i, Net: net, Topo: topo, Adj: adj,
			Feats: d.Features, Labels: d.Labels, TrainMask: d.TrainMask,
			NumTrainGlobal: nTrain,
			Model:          nn.NewModel(m.kind, dims, 1),
			PS:             ps.NewClient(net, i, []int{nWorkers}, ranges),
			Opts:           m.opts,
			Metrics:        m.metrics,
			Tracer:         m.tracer,
		})
		net.Register(i, workers[i].Handler())
	}
	for _, w := range workers {
		if err := w.FetchGhostFeatures(); err != nil {
			tb.Fatal(err)
		}
	}

	start := time.Now()
	for e := 0; e < epochs; e++ {
		errs := make(chan error, nWorkers)
		for _, w := range workers {
			go func(w *Worker) {
				_, err := w.RunEpoch(e)
				errs <- err
			}(w)
		}
		for range workers {
			if err := <-errs; err != nil {
				tb.Fatal(err)
			}
		}
	}
	return time.Since(start)
}

// writeBenchJSON records an acceptance benchmark's outcome at the repo root
// in the one schema every BENCH_*.json shares, so the CI gate reads
// gate.ok uniformly instead of special-casing files:
//
//	{
//	  "benchmark":    <name>,
//	  "workers":      <cluster size>,
//	  "epochs":       <epoch loop length>,
//	  "latency_ms":   <injected per-call RTT>,
//	  "baseline_ms":  <un-optimised arm, min over rounds>,
//	  "optimized_ms": <optimised arm, min over rounds>,
//	  "speedup":      baseline/optimized,
//	  "gate":         {"min_speedup": <floor>, "ok": <bool>},
//	  "calibration":  {<benchmark-specific scenario knobs>}
//	}
//
// It returns the speedup so the caller can assert the floor itself (a gate
// failure should fail the test run, not just the JSON).
func writeBenchJSON(tb testing.TB, file, benchmark string, workers, epochs int,
	baseline, optimized time.Duration, minSpeedup float64, calibration map[string]any) float64 {
	tb.Helper()
	speedup := float64(baseline) / float64(optimized)
	if calibration == nil {
		calibration = map[string]any{}
	}
	out := map[string]any{
		"benchmark":    benchmark,
		"workers":      workers,
		"epochs":       epochs,
		"latency_ms":   float64(benchLatency) / float64(time.Millisecond),
		"baseline_ms":  float64(baseline) / float64(time.Millisecond),
		"optimized_ms": float64(optimized) / float64(time.Millisecond),
		"speedup":      speedup,
		"gate": map[string]any{
			"min_speedup": minSpeedup,
			"ok":          speedup >= minSpeedup,
		},
		"calibration": calibration,
	}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join("..", "..", file)
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		tb.Fatal(err)
	}
	return speedup
}

// TestExchangeConcurrencySpeedup is the PR's acceptance benchmark: 8 in-proc
// workers with 2ms injected per-call latency, sequential ghost exchange vs
// the Concurrent stack fanning calls out per batch. The concurrent exchange
// must cut epoch time by at least 1.5x; the measured numbers are recorded in
// BENCH_exchange.json at the repo root for CI to archive.
func TestExchangeConcurrencySpeedup(t *testing.T) {
	skipUnlessBench(t)
	if raceEnabled {
		t.Skip("timing benchmark skipped under -race: instrumented compute swamps the injected latency")
	}
	const (
		nWorkers = 8
		epochs   = 6
	)
	d := datasets.MustLoad("cora")

	seqNet := &delayNet{Network: transport.NewInProc(nWorkers + 1), d: benchLatency}
	seqTime := benchCluster(t, d, seqNet, nWorkers, epochs, defaultBenchModel)

	concNet := transport.NewStack(
		&delayNet{Network: transport.NewInProc(nWorkers + 1), d: benchLatency},
		transport.WithConcurrency(nWorkers),
	)
	concTime := benchCluster(t, d, concNet, nWorkers, epochs, defaultBenchModel)

	speedup := writeBenchJSON(t, "BENCH_exchange.json", "ghost-exchange",
		nWorkers, epochs, seqTime, concTime, 1.5, nil)
	t.Logf("sequential %v, concurrent %v, speedup %.2fx", seqTime, concTime, speedup)

	if speedup < 1.5 {
		t.Fatalf("concurrent exchange speedup %.2fx below the 1.5x floor (sequential %v, concurrent %v)",
			speedup, seqTime, concTime)
	}
}

// countingSink is a trace sink that only counts, so the overhead test pays
// the instrumentation cost without buffering thousands of span structs.
type countingSink struct{ spans atomic.Int64 }

func (s *countingSink) Add(name, category string, pid, tid int, startSec, durSec float64) {
	s.spans.Add(1)
}

func (s *countingSink) AddInstant(name, category string, pid, tid int, tsSec float64, args map[string]interface{}) {
	s.spans.Add(1)
}

// TestTelemetryOverhead is the observability layer's acceptance benchmark:
// the fully instrumented path (metrics registry + transport metering + live
// span tracer) must cost under 2% of epoch time against the bare path on
// the same cluster. Both arms run interleaved and keep their minimum: noise
// only ever adds time, so the minima converge to the true costs while a
// noisy stretch of the host cannot land on one arm alone.
func TestTelemetryOverhead(t *testing.T) {
	skipUnlessBench(t)
	if raceEnabled {
		t.Skip("timing benchmark skipped under -race: instrumented atomics dominate under the detector")
	}
	const (
		nWorkers  = 4
		epochs    = 10
		maxRounds = 12
	)
	d := datasets.MustLoad("cora")

	run := func(m benchModel, reg *obs.Registry) time.Duration {
		net := transport.NewStack(
			transport.NewInProc(nWorkers+1),
			transport.WithConcurrency(nWorkers),
			transport.WithMetrics(reg), // nil registry = unmetered stack
		)
		return benchCluster(t, d, net, nWorkers, epochs, m)
	}

	bare := defaultBenchModel
	instr := defaultBenchModel
	sink := &countingSink{}
	reg := obs.NewRegistry()
	instr.metrics = reg
	instr.tracer = obs.NewTracer(sink)

	// Interleaved minima: noise only ever adds time, so each arm's minimum
	// converges to its true cost. If
	// the ratio still exceeds the budget after four rounds keep sampling —
	// more rounds only sharpen the minima, so a noisy stretch of the host
	// cannot fail the gate but a genuine instrumentation regression does.
	bareTime := time.Duration(1 << 62)
	instrTime := time.Duration(1 << 62)
	for round := 0; round < maxRounds; round++ {
		if round >= 4 && float64(instrTime) <= 1.02*float64(bareTime) {
			break
		}
		if dt := run(bare, nil); dt < bareTime {
			bareTime = dt
		}
		if dt := run(instr, reg); dt < instrTime {
			instrTime = dt
		}
	}
	if sink.spans.Load() == 0 {
		t.Fatal("instrumented arm recorded no spans — tracer not wired")
	}
	var scrape strings.Builder
	if err := reg.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scrape.String(), "ecgraph_transport_calls_total") ||
		!strings.Contains(scrape.String(), "ecgraph_ec_fp_bits") {
		t.Fatal("instrumented arm exported no transport/EC families — registry not wired")
	}

	ratio := float64(instrTime) / float64(bareTime)
	t.Logf("bare %v, instrumented %v (%d spans), overhead %.2f%%",
		bareTime, instrTime, sink.spans.Load(), (ratio-1)*100)
	if ratio > 1.02 {
		t.Fatalf("telemetry overhead %.2f%% above the 2%% budget (bare %v, instrumented %v)",
			(ratio-1)*100, bareTime, instrTime)
	}
}

// BenchmarkGhostExchange measures one supervised epoch loop at each fan-out
// width, for profiling the transport stack without the JSON bookkeeping.
func BenchmarkGhostExchange(b *testing.B) {
	d := datasets.MustLoad("cora")
	for _, conc := range []int{1, 8} {
		b.Run(fmt.Sprintf("concurrency-%d", conc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net := transport.NewStack(
					&delayNet{Network: transport.NewInProc(9), d: benchLatency},
					transport.WithConcurrency(conc),
				)
				benchCluster(b, d, net, 8, 2, defaultBenchModel)
			}
		})
	}
}
