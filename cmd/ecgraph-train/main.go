// Command ecgraph-train trains one GNN configuration on a preset dataset
// and prints per-epoch progress plus a final summary.
//
//	ecgraph-train -dataset cora -workers 4 -fp ec -bp ec -fp-bits 2 -bp-bits 2
//	ecgraph-train -dataset reddit -fp compress -fp-bits 8 -adaptive
//	ecgraph-train -dataset cora -epochs 30 -save-model /tmp/cora.model
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ecgraph/internal/cliconf"
	"ecgraph/internal/compress"
	"ecgraph/internal/core"
	"ecgraph/internal/metrics"
	"ecgraph/internal/nn"
	"ecgraph/internal/obs"
	"ecgraph/internal/partition"
	"ecgraph/internal/profile"
	"ecgraph/internal/tensor"
	"ecgraph/internal/trace"
	"ecgraph/internal/transport"
	"ecgraph/internal/worker"
)

// faultsNonEmpty reports whether any epoch recorded a fault counter.
func faultsNonEmpty(res *core.Result) bool {
	for _, e := range res.Epochs {
		if e.Retries+e.Timeouts+e.GiveUps > 0 || e.DegradedFetches > 0 || e.StragglerSkips > 0 {
			return true
		}
	}
	return false
}

// parseElasticPlan parses -elastic-join ("epoch" or "epoch:node", comma
// separated) and -drain ("epoch:node") into a membership plan, and returns
// the worker node-id space the run needs — boot workers plus every join
// slot, matching the engine's own id assignment (auto joins take the next
// unused ids above the boot roster).
func parseElasticPlan(joins, drains string, bootWorkers int) ([]core.MembershipChange, int, error) {
	var plan []core.MembershipChange
	auto := 0
	maxID := bootWorkers - 1
	entry := func(s string, join bool) error {
		parts := strings.Split(strings.TrimSpace(s), ":")
		epoch, err := strconv.Atoi(parts[0])
		if err != nil || epoch < 0 {
			return fmt.Errorf("plan entry %q: bad epoch", s)
		}
		node := -1
		switch {
		case len(parts) == 2:
			if node, err = strconv.Atoi(parts[1]); err != nil || node < 0 {
				return fmt.Errorf("plan entry %q: bad node id", s)
			}
			if node > maxID {
				maxID = node
			}
		case len(parts) == 1 && join:
			auto++
		default:
			return fmt.Errorf("plan entry %q: want epoch:node", s)
		}
		plan = append(plan, core.MembershipChange{Epoch: epoch, Join: join, Worker: node})
		return nil
	}
	if joins != "" {
		for _, s := range strings.Split(joins, ",") {
			if err := entry(s, true); err != nil {
				return nil, 0, err
			}
		}
	}
	if drains != "" {
		for _, s := range strings.Split(drains, ",") {
			if err := entry(s, false); err != nil {
				return nil, 0, err
			}
		}
	}
	maxWorkers := maxID + 1
	if n := bootWorkers + auto; n > maxWorkers {
		maxWorkers = n
	}
	return plan, maxWorkers, nil
}

func parseScheme(s string) (worker.Scheme, error) {
	switch s {
	case "raw":
		return worker.SchemeRaw, nil
	case "compress":
		return worker.SchemeCompress, nil
	case "ec":
		return worker.SchemeEC, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q (raw, compress, ec)", s)
	}
}

func main() {
	// Shared flags (dataset, cluster shape, supervision, PS tier,
	// telemetry) come from cliconf so the CLIs can't drift; the trainer
	// keeps only its genuinely private flags below.
	common := cliconf.Register(flag.CommandLine,
		cliconf.Defaults{Dataset: "cora", Workers: 4, Servers: 2, Epochs: 60},
		cliconf.Data|cliconf.Cluster|cliconf.Supervision|cliconf.PS|cliconf.Obs)
	var (
		model      = flag.String("model", "gcn", "gnn variant: gcn, sage or gat")
		hidden     = flag.Int("hidden", 16, "hidden layer width")
		layers     = flag.Int("layers", 2, "number of GNN layers")
		part       = flag.String("partitioner", "hash", "partitioner: hash or metis")
		fp         = flag.String("fp", "ec", "forward scheme: raw, compress, ec")
		bp         = flag.String("bp", "ec", "backward scheme: raw, compress, ec")
		fpBits     = flag.Int("fp-bits", 2, "forward compression bits (1,2,4,8,16)")
		bpBits     = flag.Int("bp-bits", 2, "backward compression bits")
		adaptive   = flag.Bool("adaptive", false, "enable the Bit-Tuner")
		ttr        = flag.Int("ttr", 10, "ReqEC-FP trend group length")
		delay      = flag.Int("delay", 0, "DistGNN-style delayed aggregation rounds (0 = off; requires -fp raw)")
		lr         = flag.Float64("lr", 0.01, "learning rate")
		seed       = flag.Int64("seed", 1, "random seed")
		traceOut   = flag.String("trace", "", "write a Chrome-trace timeline of the run to this file (with -metrics-addr or alone; includes live sub-epoch worker spans)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		saveModel  = flag.String("save-model", "", "write the trained model to this file after training (serve it with ecgraph-serve)")

		checkpoint      = flag.String("checkpoint", "", "write a resumable checkpoint to this file during training")
		checkpointEvery = flag.Int("checkpoint-every", 10, "epochs between checkpoints")
		resume          = flag.String("resume", "", "resume training from this checkpoint file")

		elastic      = flag.Bool("elastic", false, "enable live cluster membership: workers join and leave at epoch boundaries (implied by -elastic-join/-drain)")
		elasticJoin  = flag.String("elastic-join", "", "scripted worker joins, comma-separated epoch or epoch:node (e.g. 10,16 or 10:4,16:5); node defaults to the next unused id")
		drain        = flag.String("drain", "", "scripted worker drains, comma-separated epoch:node (e.g. 26:1); the worker leaves at that epoch boundary and its vertices move to the survivors")
		leaveOnDeath = flag.Bool("leave-on-death", false, "turn a detected permanent worker death into a membership leave instead of a respawn (requires -supervise and -elastic)")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "ecgraph-train: %v\n", err)
		os.Exit(1)
	}

	stopProfiles, err := profile.Start(*cpuprofile, *memprofile)
	if err != nil {
		fail(err)
	}
	defer stopProfiles()

	if err := common.Validate(); err != nil {
		fail(err)
	}
	d, err := common.LoadDataset()
	if err != nil {
		fail(err)
	}
	fpScheme, err := parseScheme(*fp)
	if err != nil {
		fail(err)
	}
	bpScheme, err := parseScheme(*bp)
	if err != nil {
		fail(err)
	}
	for _, b := range []struct {
		flag   string
		scheme worker.Scheme
		bits   int
	}{{"-fp-bits", fpScheme, *fpBits}, {"-bp-bits", bpScheme, *bpBits}} {
		if !b.scheme.TakesBits(b.bits) {
			fail(fmt.Errorf("%s %d: the %v scheme takes one of %v", b.flag, b.bits, b.scheme, compress.ValidBits))
		}
	}
	p, err := partition.ByName(*part)
	if err != nil {
		fail(err)
	}
	kind := nn.KindGCN
	switch *model {
	case "gcn":
	case "sage":
		kind = nn.KindSAGE
	case "gat":
		kind = nn.KindGAT
	default:
		fail(fmt.Errorf("unknown model %q", *model))
	}
	if *layers < 2 {
		fail(fmt.Errorf("-layers must be at least 2, got %d", *layers))
	}
	hiddenDims := make([]int, *layers-1)
	for i := range hiddenDims {
		hiddenDims[i] = *hidden
	}

	wantElastic := *elastic || *elasticJoin != "" || *drain != ""
	var elasticOpts *core.ElasticOptions
	if wantElastic {
		plan, maxW, err := parseElasticPlan(*elasticJoin, *drain, common.Workers)
		if err != nil {
			fail(err)
		}
		// MaxWorkers pins the worker node-id space up front so the transport
		// below and the engine agree on where the servers live.
		elasticOpts = &core.ElasticOptions{Plan: plan, MaxWorkers: maxW, LeaveOnDeath: *leaveOnDeath}
	}
	if *leaveOnDeath && !wantElastic {
		fail(fmt.Errorf("-leave-on-death requires -elastic"))
	}
	if *leaveOnDeath && !common.Supervise && !common.AutoRollback {
		fail(fmt.Errorf("-leave-on-death requires -supervise (death detection lives in the supervisor)"))
	}
	if wantElastic && (*checkpoint != "" || *resume != "") {
		fail(fmt.Errorf("-checkpoint/-resume are not supported with -elastic yet"))
	}

	// Telemetry: one registry feeds the transport metering, the engine's
	// gauges and the /metrics endpoint; nil (no -metrics-addr) disables all
	// of it without touching the training path. SIGINT/SIGTERM closes the
	// endpoint and flushes the event log before exiting.
	tel, err := common.StartTelemetry(nil)
	if err != nil {
		fail(err)
	}
	g := cliconf.NewGraceful("ecgraph-train")
	g.Defer(stopProfiles)
	g.Defer(tel.Close)
	g.Arm(130)
	defer g.Shutdown()

	// A requested trace records live sub-epoch worker spans during the run
	// (pid 1+worker), then gets the simulated cluster timeline merged onto
	// pid 0 after training. The tracer is only built alongside the recorder:
	// a nil *Recorder inside the SpanSink interface would defeat NewTracer's
	// nil check.
	var rec *trace.Recorder
	var tracer *obs.Tracer
	if *traceOut != "" {
		rec = trace.NewRecorder()
		tracer = obs.NewTracer(rec)
	}

	// The transport is always built through NewStack: here just the in-proc
	// base plus bounded CallMulti fan-out, so ghost exchanges overlap peers'
	// compression work. An elastic run reserves node ids for every join slot
	// up front; idle slots cost nothing until a worker lands on them.
	// Backups live on their own nodes above the primaries, so the transport
	// must reserve servers*(1+replicas) server slots.
	nodes := common.Workers + common.Servers*(1+common.PSReplicas)
	if elasticOpts != nil {
		nodes = elasticOpts.MaxWorkers + common.Servers*(1+common.PSReplicas)
	}
	stack := transport.NewStack(
		transport.NewInProc(nodes),
		transport.WithConcurrency(common.Concurrency),
		transport.WithMetrics(tel.Registry),
	)
	defer stack.Close()

	cfg := core.Config{
		Dataset:     d,
		Kind:        kind,
		Hidden:      hiddenDims,
		Workers:     common.Workers,
		Servers:     common.Servers,
		Partitioner: p,
		Epochs:      common.Epochs,
		LR:          *lr,
		Seed:        *seed,
		Net:         stack,
		Worker: worker.Options{
			FPScheme: fpScheme, BPScheme: bpScheme,
			FPBits: *fpBits, BPBits: *bpBits,
			AdaptiveBits: *adaptive, Ttr: *ttr, DelayRounds: *delay,
		},
		CheckpointPath:  *checkpoint,
		CheckpointEvery: *checkpointEvery,
		ResumeFrom:      *resume,
		Metrics:         tel.Registry,
		Events:          tel.Events,
		Tracer:          tracer,
		Elastic:         elasticOpts,
		PSReplicas:      common.PSReplicas,
		PSFailover:      common.PSFailover,
		Supervise:       common.SuperviseOptions(),
	}
	fmt.Printf("training %s on %s: %d layers, %d workers, fp=%s(%d bits) bp=%s(%d bits), %s kernel\n",
		*model, d.Name, *layers, common.Workers, *fp, *fpBits, *bp, *bpBits, tensor.Kernel())
	if *resume != "" {
		fmt.Printf("resuming from %s\n", *resume)
	}

	res, err := core.Train(cfg)
	if err != nil {
		fail(err)
	}
	for t, e := range res.Epochs {
		if t%5 == 0 || t == len(res.Epochs)-1 {
			fmt.Printf("epoch %3d  loss %.4f  val %.4f  test %.4f  time %s (compute %s + comm %s)  traffic %s\n",
				t, e.Loss, e.ValAcc, e.TestAcc,
				metrics.FormatSeconds(e.SimSeconds), metrics.FormatSeconds(e.ComputeSeconds),
				metrics.FormatSeconds(e.CommSeconds), metrics.FormatBytes(float64(e.Bytes)))
		}
	}
	// Fault-tolerance table: one row per epoch that saw transport faults,
	// degraded ghost serves or straggler skips — silent on a clean run.
	faults := metrics.NewTable("fault tolerance per epoch",
		"epoch", "retries", "timeouts", "give-ups", "degraded", "straggler-skips")
	for t, e := range res.Epochs {
		if e.Retries+e.Timeouts+e.GiveUps > 0 || e.DegradedFetches > 0 || e.StragglerSkips > 0 {
			faults.AddRow(t, e.Retries, e.Timeouts, e.GiveUps, e.DegradedFetches, e.StragglerSkips)
		}
	}
	if len(res.Epochs) > 0 && faultsNonEmpty(res) {
		fmt.Println()
		faults.Render(os.Stdout)
	}
	if len(res.SuperviseEvents) > 0 {
		fmt.Printf("\nsupervision log (%d recoveries):\n", res.Recoveries)
		for _, ev := range res.SuperviseEvents {
			fmt.Printf("  %s\n", ev)
		}
	}
	if len(res.MembershipEvents) > 0 {
		fmt.Printf("\nmembership transitions (%d):\n", len(res.MembershipEvents))
		for _, ev := range res.MembershipEvents {
			fmt.Printf("  gen %d at epoch %d: +%v -%v -> %d workers (%d vertices moved, %s handoff)\n",
				ev.Gen, ev.Epoch, ev.Joined, ev.Left, ev.Workers,
				ev.VerticesMoved, metrics.FormatBytes(float64(ev.HandoffBytes)))
		}
		fmt.Printf("final view: gen %d, workers %v\n", res.FinalView.Gen, res.FinalView.Members)
	}

	fmt.Printf("\nbest val %.4f at epoch %d; test accuracy %.4f\n", res.BestVal, res.BestEpoch, res.TestAccuracy)
	fmt.Printf("preprocessing %s; converged at epoch %d in %s; total %s\n",
		metrics.FormatSeconds(res.PreprocessSeconds), res.ConvergedEpoch,
		metrics.FormatSeconds(res.ConvergenceSimSeconds), metrics.FormatSeconds(res.TotalSimSeconds))
	fmt.Printf("partition %s: edge cut %d (%.1f%% of edges), remote degree %.2f\n",
		p.Name(), res.PartitionStats.EdgeCut, res.PartitionStats.CutFraction*100, res.PartitionStats.RemoteDegree)
	if *saveModel != "" {
		m, err := core.FinalModel(cfg, res)
		if err != nil {
			fail(err)
		}
		if err := m.SaveFile(*saveModel); err != nil {
			fail(err)
		}
		fmt.Printf("model written to %s\n", *saveModel)
	}
	if rec != nil {
		trace.FromResultInto(rec, res)
		if err := rec.WriteFile(*traceOut); err != nil {
			fail(err)
		}
		fmt.Printf("trace written to %s (open in chrome://tracing or Perfetto)\n", *traceOut)
	}
}
