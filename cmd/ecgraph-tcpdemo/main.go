// Command ecgraph-tcpdemo runs a full EC-Graph training session over real
// loopback TCP sockets — every worker↔worker and worker↔server message
// crosses an actual network stack through the same codec the simulated
// transport counts. It demonstrates that the protocol is not tied to the
// in-process harness.
//
// The -chaos-* flags layer seeded fault injection over the sockets and wrap
// the stack in the retrying transport, exercising the full fault-tolerance
// path end to end:
//
//	ecgraph-tcpdemo -dataset cora -workers 3 -epochs 20
//	ecgraph-tcpdemo -chaos-drop 0.05 -chaos-crash 1:200:400 -chaos-seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ecgraph/internal/cliconf"
	"ecgraph/internal/core"
	"ecgraph/internal/metrics"
	"ecgraph/internal/nn"
	"ecgraph/internal/supervise"
	"ecgraph/internal/tensor"
	"ecgraph/internal/transport"
	"ecgraph/internal/worker"
)

// parseCrashWindow parses "node:from:to" into a CrashWindow.
func parseCrashWindow(s string) (transport.CrashWindow, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return transport.CrashWindow{}, fmt.Errorf("crash window %q: want node:from:to", s)
	}
	var vals [3]int64
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return transport.CrashWindow{}, fmt.Errorf("crash window %q: %w", s, err)
		}
		vals[i] = v
	}
	return transport.CrashWindow{Node: int(vals[0]), From: vals[1], To: vals[2]}, nil
}

func main() {
	// Shared flags come from cliconf — one definition for the surface this
	// demo shares with ecgraph-train and ecgraph-serve.
	common := cliconf.Register(flag.CommandLine,
		cliconf.Defaults{Dataset: "cora", Workers: 3, Servers: 1, Epochs: 20},
		cliconf.Data|cliconf.Cluster|cliconf.Supervision|cliconf.PS|cliconf.Obs)
	var (
		bits = flag.Int("bits", 2, "compression bits for both directions")

		chaosDrop    = flag.Float64("chaos-drop", 0, "probability a remote call is dropped")
		chaosErr     = flag.Float64("chaos-err", 0, "probability a remote call gets an injected error response")
		chaosSpike   = flag.Float64("chaos-spike", 0, "probability a remote call is delayed by -chaos-latency")
		chaosLat     = flag.Duration("chaos-latency", 5*time.Millisecond, "latency spike duration")
		chaosSeed    = flag.Int64("chaos-seed", 1, "seed for reproducible fault injection")
		chaosCrash   = flag.String("chaos-crash", "", "crash window node:from:to over each (src,dst) pair's own call sequence (comma-separated for several)")
		chaosCorrupt = flag.Float64("chaos-corrupt", 0, "probability a remote call fails its payload checksum (simulated detected frame corruption)")
		killPS       = flag.String("kill-ps", "", "scripted parameter-server kill, epoch:range — the primary of that range departs permanently at the top of that epoch (requires -ps-failover)")

		timeout  = flag.Duration("timeout", 2*time.Second, "per-attempt call deadline")
		attempts = flag.Int("max-attempts", 4, "attempts per call, first try included")

		elasticSlots = flag.Int("elastic-slots", 0, "reserve this many extra worker node ids for live joins announced over TCP (enables elastic membership)")
		joinAddr     = flag.String("join-addr", "", "announce membership against a running cluster's monitor at this TCP address, print the returned view, and exit")
		joinNode     = flag.Int("join-node", -1, "worker node id to announce as joining via -join-addr")
		drainNode    = flag.Int("drain-node", -1, "worker node id to announce as draining via -join-addr")

		metricsLinger = flag.Duration("metrics-linger", 0, "keep the metrics endpoint up this long after training so scrapers can collect the final state")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "ecgraph-tcpdemo: %v\n", err)
		os.Exit(1)
	}

	// Announcement-only mode: speak the membership protocol against a running
	// cluster's monitor from outside its node table, report the view, exit.
	// The hosting process spawns (or retires) the worker on the reserved
	// transport slot at its next epoch boundary.
	if *joinAddr != "" {
		if *joinNode < 0 && *drainNode < 0 {
			fail(fmt.Errorf("-join-addr needs -join-node or -drain-node"))
		}
		node, join := *joinNode, true
		if *drainNode >= 0 {
			node, join = *drainNode, false
		}
		view, err := supervise.DialAnnounce(*joinAddr, node, join)
		if err != nil {
			fail(err)
		}
		verb := "join"
		if !join {
			verb = "drain"
		}
		fmt.Printf("announced %s of worker %d to %s\n", verb, node, *joinAddr)
		fmt.Printf("monitor view: %s (takes effect at the next epoch boundary)\n", view)
		return
	}

	if err := common.Validate(); err != nil {
		fail(err)
	}
	d, err := common.LoadDataset()
	if err != nil {
		fail(err)
	}
	tel, err := common.StartTelemetry(nil)
	if err != nil {
		fail(err)
	}
	g := cliconf.NewGraceful("ecgraph-tcpdemo")
	g.Defer(tel.Close)
	defer g.Shutdown()
	if *killPS != "" && !common.PSFailover {
		fail(fmt.Errorf("-kill-ps requires -ps-failover, or the run just dies with its server"))
	}
	// Elastic hosting reserves transport slots for joiners up front; the
	// membership monitor is the first parameter server, at node maxWorkers.
	// Node layout: workers (and join slots), then PS primaries, then PS
	// backups, so replicas never collide with the worker id space.
	maxWorkers := common.Workers + *elasticSlots
	nodes := maxWorkers + common.Servers*(1+common.PSReplicas)
	tcp, err := transport.NewTCPCluster(nodes)
	if err != nil {
		fail(err)
	}
	g.Defer(func() { tcp.Close() })
	g.Arm(130)
	for i := 0; i < nodes; i++ {
		fmt.Printf("node %d listening on %s\n", i, tcp.Addr(i))
	}
	if *elasticSlots > 0 {
		fmt.Printf("elastic membership on: %d join slots (worker ids %d..%d); announce with\n",
			*elasticSlots, common.Workers, maxWorkers-1)
		fmt.Printf("  ecgraph-tcpdemo -join-addr %s -join-node %d\n", tcp.Addr(maxWorkers), common.Workers)
	}

	// NewStack composes the wrapper layers in their one correct order —
	// Concurrent(Reliable(Chaos(TCP))) — so chaos injects faults below the
	// retry layer (retries see fresh fault draws, exactly how a flaky real
	// network behaves) and fanned-out batches pass through the full path.
	opts := []transport.StackOption{
		transport.WithReliable(transport.ReliableConfig{
			Timeout:     *timeout,
			MaxAttempts: *attempts,
			Seed:        *chaosSeed,
		}),
		transport.WithConcurrency(common.Concurrency),
		transport.WithNodes(nodes),
		transport.WithMetrics(tel.Registry),
	}
	// A scripted PS kill rides on the chaos layer's runtime Depart, so it
	// forces the layer into the stack even with every rate at zero.
	chaotic := *chaosDrop > 0 || *chaosErr > 0 || *chaosSpike > 0 || *chaosCorrupt > 0 ||
		*chaosCrash != "" || *killPS != ""
	if chaotic {
		ccfg := transport.ChaosConfig{
			Seed:        *chaosSeed,
			DropRate:    *chaosDrop,
			ErrorRate:   *chaosErr,
			LatencyRate: *chaosSpike,
			Latency:     *chaosLat,
			CorruptRate: *chaosCorrupt,
		}
		if *chaosCrash != "" {
			for _, s := range strings.Split(*chaosCrash, ",") {
				w, err := parseCrashWindow(s)
				if err != nil {
					fail(err)
				}
				ccfg.Crash = append(ccfg.Crash, w)
			}
		}
		opts = append(opts, transport.WithChaos(ccfg))
		fmt.Printf("chaos enabled: drop %.2f, err %.2f, spike %.2f (%v), corrupt %.2f, seed %d, crash %q\n",
			*chaosDrop, *chaosErr, *chaosSpike, *chaosLat, *chaosCorrupt, *chaosSeed, *chaosCrash)
	}
	stack := transport.NewStack(tcp, opts...)
	fmt.Printf("transport: %s; %s kernel\n", stack, tensor.Kernel())

	// Parse -kill-ps into an epoch hook that departs the doomed primary at
	// the top of its epoch. The hook fires on replays too, so it latches.
	var epochHook func(int)
	if *killPS != "" {
		parts := strings.Split(*killPS, ":")
		bad := len(parts) != 2
		var killEpoch, killRange int
		if !bad {
			var err1, err2 error
			killEpoch, err1 = strconv.Atoi(parts[0])
			killRange, err2 = strconv.Atoi(parts[1])
			bad = err1 != nil || err2 != nil || killEpoch < 0 || killRange < 0 || killRange >= common.Servers
		}
		if bad {
			fail(fmt.Errorf("-kill-ps %q: want epoch:range with range < %d", *killPS, common.Servers))
		}
		chaos, victim, done := stack.Chaos(), maxWorkers+killRange, false
		epochHook = func(t int) {
			if t == killEpoch && !done {
				done = true
				fmt.Printf("kill-ps: departing node %d (primary of range %d) at epoch %d\n", victim, killRange, t)
				chaos.Depart(victim)
			}
		}
	}

	cfg := core.Config{
		Dataset:    d,
		Kind:       nn.KindGCN,
		Hidden:     []int{16},
		Workers:    common.Workers,
		Servers:    common.Servers,
		Epochs:     common.Epochs,
		LR:         0.01,
		Seed:       1,
		Net:        stack,
		Metrics:    tel.Registry,
		Events:     tel.Events,
		PSReplicas: common.PSReplicas,
		PSFailover: common.PSFailover,
		EpochHook:  epochHook,
		Worker: worker.Options{
			FPScheme: worker.SchemeEC, BPScheme: worker.SchemeEC,
			FPBits: *bits, BPBits: *bits, Ttr: 10,
		},
		Supervise: common.SuperviseOptions(),
	}
	if *elasticSlots > 0 {
		cfg.Elastic = &core.ElasticOptions{MaxWorkers: maxWorkers}
	}
	if cfg.Supervise != nil {
		fmt.Printf("supervision enabled: heartbeat %v, auto-rollback %v\n", common.Heartbeat, common.AutoRollback)
	}
	if common.PSReplicas > 0 {
		fmt.Printf("ps tier: primaries on nodes %d..%d, hot standbys on nodes %d..%d, failover %v\n",
			maxWorkers, maxWorkers+common.Servers-1, maxWorkers+common.Servers, nodes-1, common.PSFailover)
	}

	res, err := core.Train(cfg)
	if err != nil {
		fail(err)
	}
	var bytes, retries, timeouts, giveups int64
	var degraded, skips int
	for _, e := range res.Epochs {
		bytes += e.Bytes
		retries += e.Retries
		timeouts += e.Timeouts
		giveups += e.GiveUps
		degraded += e.DegradedFetches
		skips += e.StragglerSkips
	}
	fmt.Printf("\ntrained %d epochs over TCP: test accuracy %.4f, %s moved across sockets\n",
		common.Epochs, res.TestAccuracy, metrics.FormatBytes(float64(bytes)))
	if chaotic {
		inj := stack.Stats().Injected
		fmt.Printf("injected: %d drops, %d errors, %d spikes, %d corrupts, %d crashed calls, %d departed calls\n",
			inj.Drops, inj.Errors, inj.Spikes, inj.Corrupts, inj.CrashedCalls, inj.DepartedCalls)
		fmt.Printf("recovered: %d retries, %d timeouts, %d give-ups, %d degraded ghost fetches (%d straggler skips)\n",
			retries, timeouts, giveups, degraded, skips)
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
	if common.MetricsAddr != "" && *metricsLinger > 0 {
		fmt.Printf("metrics endpoint lingering %v for final scrapes\n", *metricsLinger)
		time.Sleep(*metricsLinger)
	}
}
