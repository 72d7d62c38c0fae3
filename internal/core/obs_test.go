package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ecgraph/internal/obs"
	"ecgraph/internal/supervise"
	"ecgraph/internal/transport"
	"ecgraph/internal/worker"
)

// countingSink counts live spans without buffering them; core cannot use
// trace.Recorder here (package trace imports core), which is also why
// obs.SpanSink is a structural interface.
type countingSink struct{ spans, instants atomic.Int64 }

func (s *countingSink) Add(name, category string, pid, tid int, startSec, durSec float64) {
	s.spans.Add(1)
}

func (s *countingSink) AddInstant(name, category string, pid, tid int, tsSec float64, args map[string]interface{}) {
	s.instants.Add(1)
}

// TestTelemetryEndToEndUnderChaos is the observability layer's acceptance
// e2e: the two-worker chaos scenario (seeded ghost-exchange drops, EC both
// directions, inert-thresholds supervision, overlap pipeline) trained bare
// and trained fully instrumented — metrics registry served over HTTP,
// JSONL epoch event log, live span tracer — must produce bitwise-identical
// losses and final parameters, while the instrumented run serves every
// expected metric family in parseable Prometheus text and logs exactly one
// event per epoch per worker carrying the EC pipeline fields.
func TestTelemetryEndToEndUnderChaos(t *testing.T) {
	const (
		epochs   = 8
		nWorkers = 2
	)

	type armResult struct {
		res     *Result
		metrics string
		events  *bytes.Buffer
		sink    *countingSink
	}

	run := func(instrument bool) armResult {
		cfg := coraConfig(epochs)
		cfg.Workers = nWorkers
		cfg.Servers = 1
		cfg.Worker = worker.Options{
			FPScheme: worker.SchemeEC, BPScheme: worker.SchemeEC,
			FPBits: 2, BPBits: 2, Ttr: 5,
		}
		// Supervision runs for real but with inert thresholds (see
		// TestExchangeGoldenUnderChaos): a detector trip on
		// scheduler timing would fork the arms for reasons that have
		// nothing to do with telemetry.
		cfg.Supervise = &supervise.Options{
			HeartbeatInterval: 5 * time.Millisecond,
			SuspectAfter:      time.Hour,
			DeadAfter:         2 * time.Hour,
			PhiSuspect:        1e9,
			PhiDead:           2e9,
			StragglerMult:     -1,
		}

		var out armResult
		stackOpts := []transport.StackOption{
			transport.WithChaos(transport.ChaosConfig{
				Seed:     11,
				DropRate: 0.30,
				Methods:  []string{worker.MethodGetH, worker.MethodGetG},
			}),
			transport.WithReliable(transport.ReliableConfig{
				Timeout:     5 * time.Second,
				MaxAttempts: 2,
				BaseBackoff: 50 * time.Microsecond,
				Seed:        11,
			}),
			transport.WithConcurrency(4),
		}
		var srv *obs.Server
		if instrument {
			reg := obs.NewRegistry()
			var err error
			srv, err = obs.Serve(":0", reg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			out.events = &bytes.Buffer{}
			out.sink = &countingSink{}
			cfg.Metrics = reg
			cfg.Events = obs.NewEventLog(out.events)
			cfg.Tracer = obs.NewTracer(out.sink)
			stackOpts = append(stackOpts, transport.WithMetrics(reg))
		}
		stack := transport.NewStack(
			transport.NewInProc(cfg.Workers+cfg.Servers), stackOpts...)
		defer stack.Close()
		cfg.Net = stack

		res, err := Train(cfg)
		if err != nil {
			t.Fatalf("instrument=%v: %v", instrument, err)
		}
		if stack.Stats().Injected.Drops == 0 {
			t.Fatalf("instrument=%v: chaos injected nothing", instrument)
		}
		out.res = res
		if instrument {
			resp, err := http.Get(fmt.Sprintf("http://%s/metrics", srv.Addr()))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/metrics status %d", resp.StatusCode)
			}
			out.metrics = string(body)
		}
		return out
	}

	bare := run(false)
	instr := run(true)

	// Telemetry must not perturb training: both runs bitwise identical.
	for e := 0; e < epochs; e++ {
		if bare.res.Epochs[e].Loss != instr.res.Epochs[e].Loss {
			t.Errorf("epoch %d: bare loss %v != instrumented loss %v",
				e, bare.res.Epochs[e].Loss, instr.res.Epochs[e].Loss)
		}
	}
	if len(bare.res.FinalParams) != len(instr.res.FinalParams) {
		t.Fatalf("param lengths diverged: %d vs %d",
			len(bare.res.FinalParams), len(instr.res.FinalParams))
	}
	for i := range bare.res.FinalParams {
		if bare.res.FinalParams[i] != instr.res.FinalParams[i] {
			t.Fatalf("final params diverge at %d: %v vs %v",
				i, bare.res.FinalParams[i], instr.res.FinalParams[i])
		}
	}

	// The served exposition must carry every subsystem's families and be
	// line-parseable Prometheus text.
	for _, fam := range []string{
		"ecgraph_transport_calls_total",
		"ecgraph_transport_pair_bytes_total",
		"ecgraph_transport_call_seconds_bucket",
		"ecgraph_transport_node_bytes",
		"ecgraph_chaos_injected",
		"ecgraph_compress_calls",
		"ecgraph_ec_fp_bits",
		"ecgraph_ec_fp_choice_total",
		"ecgraph_ec_residual_l2",
		"ecgraph_worker_overlap_utilization",
		"ecgraph_worker_comm_seconds_total",
		"ecgraph_supervise_phi",
		"ecgraph_supervise_status",
		"ecgraph_train_epoch",
		"ecgraph_train_loss",
	} {
		if !strings.Contains(instr.metrics, "\n"+fam) && !strings.HasPrefix(instr.metrics, fam) {
			t.Errorf("/metrics missing family %s", fam)
		}
	}
	for _, line := range strings.Split(instr.metrics, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unbalanced labels in %q", line)
			}
			name = name[:i]
		}
		if !strings.HasPrefix(name, "ecgraph_") {
			t.Fatalf("unexpected sample name in %q", line)
		}
	}

	// The event log must hold one self-describing record per epoch per
	// worker, with the EC pipeline fields populated.
	seen := map[[2]int]bool{}
	dec := json.NewDecoder(bytes.NewReader(instr.events.Bytes()))
	for dec.More() {
		var ev EpochEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("event log: %v", err)
		}
		if ev.Schema != EpochEventSchema {
			t.Fatalf("event schema %q, want %q", ev.Schema, EpochEventSchema)
		}
		key := [2]int{ev.Epoch, ev.Worker}
		if seen[key] {
			t.Fatalf("duplicate event for epoch %d worker %d", ev.Epoch, ev.Worker)
		}
		seen[key] = true
		if len(ev.LayerFPBits) != 1 { // 2-layer GCN: one exchanged embedding layer
			t.Fatalf("epoch %d worker %d: layer_fp_bits %v, want length 1", ev.Epoch, ev.Worker, ev.LayerFPBits)
		}
		if ev.LayerFPBits[0] != 2 {
			t.Fatalf("epoch %d worker %d: served bits %d, want 2", ev.Epoch, ev.Worker, ev.LayerFPBits[0])
		}
		if ev.PredictedFraction < 0 || ev.PredictedFraction > 1 {
			t.Fatalf("predicted_fraction %v out of range", ev.PredictedFraction)
		}
		if len(ev.ResidualL2) == 0 {
			t.Fatalf("epoch %d worker %d: ResEC-BP run missing residual_l2", ev.Epoch, ev.Worker)
		}
	}
	if len(seen) != epochs*nWorkers {
		t.Fatalf("event log has %d records, want %d", len(seen), epochs*nWorkers)
	}

	if instr.sink.spans.Load() == 0 || instr.sink.instants.Load() == 0 {
		t.Fatalf("tracer recorded %d spans and %d instants — live tracing not wired",
			instr.sink.spans.Load(), instr.sink.instants.Load())
	}
	t.Logf("bitwise-identical under full telemetry: %d spans, %d instants, %d event records",
		instr.sink.spans.Load(), instr.sink.instants.Load(), len(seen))
}
