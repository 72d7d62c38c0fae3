// Command ecgraph-train trains one GNN configuration on a preset dataset
// and prints per-epoch progress plus a final summary. -net picks how the
// workers and parameter servers talk: the byte-counted in-process network
// (the default) or real loopback TCP sockets carrying the same codec.
//
//	ecgraph-train -dataset cora -workers 4 -fp ec -bp ec -fp-bits 2 -bp-bits 2
//	ecgraph-train -dataset reddit -fp compress -fp-bits 8 -adaptive
//	ecgraph-train -dataset cora -epochs 30 -save-model /tmp/cora.model
//	ecgraph-train -net tcp -workers 3 -servers 1 -chaos-drop 0.05 -chaos-crash 1:150:158 -chaos-seed 7
//	ecgraph-train -net tcp -workers 3 -elastic-slots 2   # prints the -announce line that joins it
//	ecgraph-train -announce join:3@127.0.0.1:PORT
//
// The -chaos-* flags and -kill-ps layer seeded fault injection, and the
// retrying transport, over either network; -net tcp always retries.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ecgraph/internal/cliconf"
	"ecgraph/internal/compress"
	"ecgraph/internal/core"
	"ecgraph/internal/metrics"
	"ecgraph/internal/nn"
	"ecgraph/internal/obs"
	"ecgraph/internal/supervise"
	"ecgraph/internal/tensor"
	"ecgraph/internal/trace"
	"ecgraph/internal/transport"
	"ecgraph/internal/worker"
)

// The retry envelope of a run whose calls can fail (-net tcp or chaos).
const (
	callTimeout  = 2 * time.Second
	callAttempts = 4
)

// parseElasticPlan parses -elastic-join ("epoch" or "epoch:node", comma
// separated) and -drain ("epoch:node") into a membership plan, and returns
// the worker node-id space the run needs — boot workers plus every join
// slot, matching the engine's own id assignment (auto joins take the next
// unused ids above the boot roster) — plus the slots reserved for joins
// announced over TCP, which sit above the plan's.
func parseElasticPlan(joins, drains string, bootWorkers, slots int) ([]core.MembershipChange, int, error) {
	if slots < 0 {
		return nil, 0, fmt.Errorf("-elastic-slots must be at least 0, got %d", slots)
	}
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
	for _, list := range []struct {
		entries string
		join    bool
	}{{joins, true}, {drains, false}} {
		if list.entries == "" {
			continue
		}
		for _, s := range strings.Split(list.entries, ",") {
			if err := entry(s, list.join); err != nil {
				return nil, 0, err
			}
		}
	}
	maxWorkers := maxID + 1
	if n := bootWorkers + auto; n > maxWorkers {
		maxWorkers = n
	}
	return plan, maxWorkers + slots, nil
}

// parseCrashWindow parses "node:from:to" into a CrashWindow over a cluster
// of nodes nodes.
func parseCrashWindow(s string, nodes int) (transport.CrashWindow, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return transport.CrashWindow{}, fmt.Errorf("-chaos-crash %q: want node:from:to", s)
	}
	var vals [3]int64
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return transport.CrashWindow{}, fmt.Errorf("-chaos-crash %q: %w", s, err)
		}
		vals[i] = v
	}
	w := transport.CrashWindow{Node: int(vals[0]), From: vals[1], To: vals[2]}
	switch {
	case w.Node < 0 || w.Node >= nodes:
		return w, fmt.Errorf("-chaos-crash %q: node %d is not one of the cluster's %d nodes", s, w.Node, nodes)
	case w.From < 0 || w.From >= w.To:
		return w, fmt.Errorf("-chaos-crash %q: want 0 <= from < to", s)
	}
	return w, nil
}

// chaosConfig turns the -chaos-* flags into the chaos layer's config over a
// cluster of nodes nodes; nil means no chaos layer. A scripted PS kill rides
// the layer's Depart, so force builds it even with every rate at zero.
func chaosConfig(drop, corrupt float64, seed int64, crash string, nodes int, force bool) (*transport.ChaosConfig, error) {
	for _, r := range []struct {
		flag string
		rate float64
	}{{"-chaos-drop", drop}, {"-chaos-corrupt", corrupt}} {
		if !(r.rate >= 0 && r.rate <= 1) {
			return nil, fmt.Errorf("%s %g: a probability must lie in [0, 1]", r.flag, r.rate)
		}
	}
	if drop == 0 && corrupt == 0 && crash == "" && !force {
		return nil, nil
	}
	cfg := &transport.ChaosConfig{Seed: seed, DropRate: drop, CorruptRate: corrupt}
	if crash != "" {
		for _, s := range strings.Split(crash, ",") {
			w, err := parseCrashWindow(s, nodes)
			if err != nil {
				return nil, err
			}
			cfg.Crash = append(cfg.Crash, w)
		}
	}
	return cfg, nil
}

// parseKillPS parses -kill-ps "epoch:range" against the run's servers.
func parseKillPS(s string, servers int) (epoch, rng int, err error) {
	parts := strings.Split(s, ":")
	bad := len(parts) != 2
	if !bad {
		var err1, err2 error
		epoch, err1 = strconv.Atoi(parts[0])
		rng, err2 = strconv.Atoi(parts[1])
		bad = err1 != nil || err2 != nil || epoch < 0 || rng < 0 || rng >= servers
	}
	if bad {
		return 0, 0, fmt.Errorf("-kill-ps %q: want epoch:range with range < %d", s, servers)
	}
	return epoch, rng, nil
}

// parseAnnounce parses -announce "join:node@addr" or "drain:node@addr".
func parseAnnounce(s string) (addr string, node int, join bool, err error) {
	intent, addr, ok := strings.Cut(s, "@")
	verb, id, ok2 := strings.Cut(intent, ":")
	node, err = strconv.Atoi(id)
	if !ok || !ok2 || addr == "" || (verb != "join" && verb != "drain") || err != nil || node < 0 {
		return "", 0, false, fmt.Errorf("-announce %q: want join:node@addr or drain:node@addr", s)
	}
	return addr, node, verb == "join", nil
}

// hiddenDims is the hidden widths of a layers-deep model.
func hiddenDims(hidden, layers int) ([]int, error) {
	if layers < 2 {
		return nil, fmt.Errorf("-layers must be at least 2, got %d", layers)
	}
	if hidden < 1 {
		return nil, fmt.Errorf("-hidden must be at least 1, got %d", hidden)
	}
	dims := make([]int, layers-1)
	for i := range dims {
		dims[i] = hidden
	}
	return dims, nil
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
	// telemetry, profiles) come from cliconf so the CLIs can't drift; the
	// trainer keeps only its genuinely private flags below.
	common := cliconf.Register(flag.CommandLine,
		cliconf.Defaults{Dataset: "cora", Workers: 4, Servers: 2, Epochs: 60},
		cliconf.Data|cliconf.Cluster|cliconf.Supervision|cliconf.PS|cliconf.Obs|cliconf.Profile)
	var (
		netName   = flag.String("net", "inproc", "transport between nodes: inproc (byte-counted, in-process) or tcp (a loopback listener per node)")
		model     = flag.String("model", "gcn", "gnn variant: gcn, sage or gat")
		hidden    = flag.Int("hidden", 16, "hidden layer width")
		layers    = flag.Int("layers", 2, "number of GNN layers")
		fp        = flag.String("fp", "ec", "forward scheme: raw, compress, ec")
		bp        = flag.String("bp", "ec", "backward scheme: raw, compress, ec")
		fpBits    = flag.Int("fp-bits", 2, "forward compression bits (1,2,4,8,16)")
		bpBits    = flag.Int("bp-bits", 2, "backward compression bits")
		adaptive  = flag.Bool("adaptive", false, "enable the Bit-Tuner")
		seed      = flag.Int64("seed", 1, "random seed")
		traceOut  = flag.String("trace", "", "write a Chrome-trace timeline of the run to this file (with -metrics-addr or alone; includes live sub-epoch worker spans)")
		saveModel = flag.String("save-model", "", "write the trained model to this file after training (serve it with ecgraph-serve)")

		checkpoint = flag.String("checkpoint", "", "write a resumable checkpoint to this file every 10 epochs and at the end")
		resume     = flag.String("resume", "", "resume training from this checkpoint file")

		elasticJoin = flag.String("elastic-join", "", "scripted worker joins, comma-separated epoch or epoch:node (e.g. 10,16 or 10:4,16:5); node defaults to the next unused id")
		drain       = flag.String("drain", "", "scripted worker drains, comma-separated epoch:node (e.g. 26:1); the worker leaves at that epoch boundary and its vertices move to the survivors")
		slots       = flag.Int("elastic-slots", 0, "reserve this many extra worker ids for joins announced with -announce (needs -net tcp)")
		announce    = flag.String("announce", "", "announce join:node@addr or drain:node@addr to a running cluster's monitor, print the returned view, and exit")

		chaosDrop     = flag.Float64("chaos-drop", 0, "probability a remote call is dropped")
		chaosCorrupt  = flag.Float64("chaos-corrupt", 0, "probability a remote call fails its payload checksum (simulated detected frame corruption)")
		chaosSeed     = flag.Int64("chaos-seed", 1, "seed for reproducible fault injection and retry jitter")
		chaosCrash    = flag.String("chaos-crash", "", "crash window node:from:to over each (src,dst) pair's own call sequence (comma-separated for several)")
		killPS        = flag.String("kill-ps", "", "scripted parameter-server kill, epoch:range — the primary of that range departs permanently at the top of that epoch (requires -ps-failover)")
		metricsLinger = flag.Duration("metrics-linger", 0, "keep the metrics endpoint up this long after training so scrapers can collect the final state")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "ecgraph-train: %v\n", err)
		os.Exit(1)
	}

	// Announcement-only mode: speak the membership protocol against a
	// running cluster's monitor from outside its node table, report the
	// view, exit. The hosting process spawns (or retires) the worker on the
	// reserved slot at its next epoch boundary.
	if *announce != "" {
		addr, node, join, err := parseAnnounce(*announce)
		if err != nil {
			fail(err)
		}
		view, err := supervise.DialAnnounce(addr, node, join)
		if err != nil {
			fail(err)
		}
		fmt.Printf("announced %s; monitor view: %s (takes effect at the next epoch boundary)\n", *announce, view)
		return
	}

	// Every flag is checked before anything is loaded or bound.
	if err := common.Validate(); err != nil {
		fail(err)
	}
	if *netName != "inproc" && *netName != "tcp" {
		fail(fmt.Errorf("-net %q: want inproc or tcp", *netName))
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
	dims, err := hiddenDims(*hidden, *layers)
	if err != nil {
		fail(err)
	}

	// Node layout: workers (and every join slot) first, then PS primaries,
	// then PS backups, so replicas never collide with the worker id space.
	// MaxWorkers pins the worker id space up front so the transport and the
	// engine agree on where the servers live; idle slots cost nothing.
	plan, maxWorkers, err := parseElasticPlan(*elasticJoin, *drain, common.Workers, *slots)
	if err != nil {
		fail(err)
	}
	if *slots > 0 && *netName != "tcp" {
		fail(fmt.Errorf("-elastic-slots needs -net tcp: joins are announced to the monitor's TCP listener"))
	}
	var elastic *core.ElasticOptions
	if len(plan) > 0 || *slots > 0 {
		elastic = &core.ElasticOptions{Plan: plan, MaxWorkers: maxWorkers}
		if *checkpoint != "" || *resume != "" {
			fail(fmt.Errorf("-checkpoint/-resume are not supported with elastic membership yet"))
		}
	}
	nodes := maxWorkers + common.Servers*(1+common.PSReplicas)

	killEpoch, killRange := -1, 0
	if *killPS != "" {
		if !common.PSFailover {
			fail(fmt.Errorf("-kill-ps requires -ps-failover, or the run just dies with its server"))
		}
		if killEpoch, killRange, err = parseKillPS(*killPS, common.Servers); err != nil {
			fail(err)
		}
	}
	chaos, err := chaosConfig(*chaosDrop, *chaosCorrupt, *chaosSeed, *chaosCrash, nodes, *killPS != "")
	if err != nil {
		fail(err)
	}

	stopProfiles, err := common.StartProfiles()
	if err != nil {
		fail(err)
	}
	d, err := common.LoadDataset()
	if err != nil {
		fail(err)
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

	// The transport is built once, through NewStack, which composes the
	// layers in their one correct order — Concurrent(Reliable(Chaos(base)))
	// — so chaos injects below the retry layer (retries see fresh fault
	// draws, as on a flaky real network) and fanned-out ghost exchanges
	// overlap peers' compression work through the full path. An in-process
	// run without chaos has nothing to retry: just Concurrent(InProc).
	var base transport.Network = transport.NewInProc(nodes)
	if *netName == "tcp" {
		tcp, err := transport.NewTCPCluster(nodes)
		if err != nil {
			fail(err)
		}
		base = tcp
		if *slots > 0 {
			fmt.Printf("elastic membership on: %d join slots (worker ids %d..%d); announce with\n",
				*slots, maxWorkers-*slots, maxWorkers-1)
			fmt.Printf("  ecgraph-train -announce join:%d@%s\n", maxWorkers-*slots, tcp.Addr(maxWorkers))
		}
	}
	opts := []transport.StackOption{
		transport.WithConcurrency(common.Concurrency),
		transport.WithMetrics(tel.Registry),
	}
	if *netName == "tcp" || chaos != nil {
		opts = append(opts, transport.WithReliable(transport.ReliableConfig{
			Timeout: callTimeout, MaxAttempts: callAttempts, Seed: *chaosSeed,
		}))
	}
	if chaos != nil {
		opts = append(opts, transport.WithChaos(*chaos))
		fmt.Printf("chaos enabled: drop %.2f, corrupt %.2f, seed %d, crash %q\n",
			*chaosDrop, *chaosCorrupt, *chaosSeed, *chaosCrash)
	}
	stack := transport.NewStack(base, opts...)
	g.Defer(func() { stack.Close() })
	g.Arm(130)

	// -kill-ps departs the doomed primary at the top of its epoch. The hook
	// fires on replays too, so it latches.
	var epochHook func(int)
	if killEpoch >= 0 {
		victim, done := maxWorkers+killRange, false
		epochHook = func(t int) {
			if t == killEpoch && !done {
				done = true
				fmt.Printf("kill-ps: departing node %d (primary of range %d) at epoch %d\n", victim, killRange, t)
				stack.Chaos().Depart(victim)
			}
		}
	}

	cfg := core.Config{
		Dataset: d,
		Kind:    kind,
		Hidden:  dims,
		Workers: common.Workers,
		Servers: common.Servers,
		Epochs:  common.Epochs,
		Seed:    *seed,
		Net:     stack,
		Worker: worker.Options{
			FPScheme: fpScheme, BPScheme: bpScheme,
			FPBits: *fpBits, BPBits: *bpBits, AdaptiveBits: *adaptive,
		},
		CheckpointPath: *checkpoint,
		ResumeFrom:     *resume,
		Metrics:        tel.Registry,
		Events:         tel.Events,
		Tracer:         tracer,
		Elastic:        elastic,
		EpochHook:      epochHook,
		PSReplicas:     common.PSReplicas,
		PSFailover:     common.PSFailover,
		Supervise:      common.SuperviseOptions(),
	}
	fmt.Printf("training %s on %s: %d layers, %d workers, fp=%s(%d bits) bp=%s(%d bits), %s kernel\n",
		*model, d.Name, *layers, common.Workers, *fp, *fpBits, *bp, *bpBits, tensor.Kernel())
	fmt.Printf("transport: %s over %s\n", stack, *netName)
	if common.PSReplicas > 0 {
		fmt.Printf("ps tier: primaries on nodes %d..%d, hot standbys on nodes %d..%d, failover %v\n",
			maxWorkers, maxWorkers+common.Servers-1, maxWorkers+common.Servers, nodes-1, common.PSFailover)
	}
	if *resume != "" {
		fmt.Printf("resuming from %s\n", *resume)
	}

	res, err := core.Train(cfg)
	if err != nil {
		fail(err)
	}
	summarize(res, stack, *netName == "tcp", common.Epochs)
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
	if common.MetricsAddr != "" && *metricsLinger > 0 {
		fmt.Printf("metrics endpoint lingering %v for final scrapes\n", *metricsLinger)
		time.Sleep(*metricsLinger)
	}
}

// summarize prints the run: sampled epochs, the fault table, the
// supervision and membership logs, the injected and recovered fault
// totals under chaos, and the headline accuracy and timing lines.
func summarize(res *core.Result, stack *transport.Stack, overTCP bool, epochs int) {
	var bytes, retries, timeouts, giveups int64
	var degraded, skips int
	// Fault-tolerance table: one row per epoch that saw transport faults,
	// degraded ghost serves or straggler skips — silent on a clean run.
	faults := metrics.NewTable("fault tolerance per epoch",
		"epoch", "retries", "timeouts", "give-ups", "degraded", "straggler-skips")
	faulty := false
	for t, e := range res.Epochs {
		if t%5 == 0 || t == len(res.Epochs)-1 {
			fmt.Printf("epoch %3d  loss %.4f  val %.4f  test %.4f  time %s (compute %s + comm %s)  traffic %s\n",
				t, e.Loss, e.ValAcc, e.TestAcc,
				metrics.FormatSeconds(e.SimSeconds), metrics.FormatSeconds(e.ComputeSeconds),
				metrics.FormatSeconds(e.CommSeconds), metrics.FormatBytes(float64(e.Bytes)))
		}
		if e.Faulted() {
			faulty = true
			faults.AddRow(t, e.Retries, e.Timeouts, e.GiveUps, e.DegradedFetches, e.StragglerSkips)
		}
		bytes += e.Bytes
		retries += e.Retries
		timeouts += e.Timeouts
		giveups += e.GiveUps
		degraded += e.DegradedFetches
		skips += e.StragglerSkips
	}
	if faulty {
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
	if stack.Chaos() != nil {
		inj := stack.Stats().Injected
		fmt.Printf("\ninjected: %d drops, %d corrupts, %d crashed calls, %d departed calls\n",
			inj.Drops, inj.Corrupts, inj.CrashedCalls, inj.DepartedCalls)
		fmt.Printf("recovered: %d retries, %d timeouts, %d give-ups, %d degraded ghost fetches (%d straggler skips)\n",
			retries, timeouts, giveups, degraded, skips)
	}
	if overTCP {
		fmt.Printf("\ntrained %d epochs over TCP: %s moved across sockets\n", epochs, metrics.FormatBytes(float64(bytes)))
	}

	fmt.Printf("\nbest val %.4f at epoch %d; test accuracy %.4f\n", res.BestVal, res.BestEpoch, res.TestAccuracy)
	fmt.Printf("preprocessing %s; converged at epoch %d in %s; total %s\n",
		metrics.FormatSeconds(res.PreprocessSeconds), res.ConvergedEpoch,
		metrics.FormatSeconds(res.ConvergenceSimSeconds), metrics.FormatSeconds(res.TotalSimSeconds))
	fmt.Printf("partition hash: edge cut %d (%.1f%% of edges), remote degree %.2f\n",
		res.PartitionStats.EdgeCut, res.PartitionStats.CutFraction*100, res.PartitionStats.RemoteDegree)
}
