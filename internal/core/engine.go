// Package core is EC-Graph's orchestration layer and public entry point:
// given a dataset and a configuration it partitions the graph, wires
// workers and parameter servers over a transport, runs synchronous
// full-batch GNN training with the configured compression/compensation
// scheme, and reports per-epoch timing, traffic and accuracy.
//
// Epoch time follows the reproduction's virtual-clock model (DESIGN.md §2):
// measured wall-clock compute of the concurrently running workers plus the
// simulated Gigabit-Ethernet time for the exact bytes the codec put on the
// wire, taking the maximum over nodes (the slowest link gates the epoch).
package core

import (
	"fmt"
	"time"

	"ecgraph/internal/compress"
	"ecgraph/internal/datasets"
	"ecgraph/internal/graph"
	"ecgraph/internal/nn"
	"ecgraph/internal/obs"
	"ecgraph/internal/partition"
	"ecgraph/internal/ps"
	"ecgraph/internal/supervise"
	"ecgraph/internal/tensor"
	"ecgraph/internal/transport"
	"ecgraph/internal/worker"
)

// Config parameterises one training run.
type Config struct {
	Dataset *datasets.Dataset
	Kind    nn.Kind
	// Hidden lists the hidden-layer widths; the model dims become
	// [features, Hidden..., classes]. A 2-layer GCN has one hidden entry.
	Hidden []int
	// Heads is the attention-head count per layer of a KindGAT model
	// (default 1); hidden widths are post-concatenation and must divide by
	// it.
	Heads int

	Workers int
	Servers int
	// Partitioner divides the vertex set; defaults to Hash (the paper's
	// default, §V-D).
	Partitioner partition.Partitioner

	// Worker carries the communication scheme (raw / compress / EC, bit
	// widths, T_tr, delayed aggregation).
	Worker worker.Options

	Epochs int
	// Optim carries optional server-side optimiser refinements (gradient
	// clipping, learning-rate decay).
	Optim ps.ServerOptions
	// Patience enables early stopping: training halts once validation
	// accuracy has not improved for Patience consecutive epochs. Zero
	// disables it (the paper trains for a fixed budget and reports the
	// best-validation checkpoint, which remains the default).
	Patience int
	LR       float64
	Seed     int64

	// Net defaults to an in-process byte-counted network; pass a
	// transport.TCPCluster to run over real sockets.
	Net transport.Network
	// Cost converts counted bytes into simulated network time; defaults to
	// Gigabit Ethernet.
	Cost transport.CostModel
	// NodeCosts optionally overrides Cost per node, modelling heterogeneous
	// clusters — e.g. one worker behind a slower link. Nodes are laid out
	// workers, then PS primaries, then PS backups (when PSReplicas > 0).
	// The slowest node still gates the epoch.
	NodeCosts []transport.CostModel

	// PSReplicas gives every parameter-server range that many hot-standby
	// replicas on dedicated nodes above the primaries (0 or 1). The primary
	// log-ships each applied update — post-Adam parameters, Adam moments,
	// learning-rate state, version — to its backup inside the push critical
	// section, so the backup always serves pulls at the promoted version
	// with bitwise-identical state. Replication without PSFailover keeps a
	// warm standby but never promotes it.
	PSReplicas int
	// PSFailover arms the promotion path: the phi-accrual detector watches
	// PS nodes too, a dead primary's backup is promoted via the shared
	// range→node route table, a dead monitor's duty is re-elected to the
	// lowest-id live PS node, and fresh backups are spawned and re-synced
	// once the dead node answers probes again. Requires Supervise and
	// PSReplicas >= 1.
	PSFailover bool
	// EpochHook, when non-nil, is called at the top of every epoch attempt
	// (replays after a recovery included) with the epoch about to run —
	// the seam fault-injection tests and the CLIs use to kill a PS node at
	// a known training phase (transport.Chaos.Depart). Hooks that inject
	// one-shot faults must dedupe on the epoch number themselves.
	EpochHook func(epoch int)

	// CheckpointPath, when non-empty, makes Train atomically write a
	// resumable checkpoint (model + Adam state + progress) to this file every
	// CheckpointEvery epochs and at the end of the run.
	CheckpointPath string
	// CheckpointEvery defaults to 10 when checkpointing is enabled.
	CheckpointEvery int
	// ResumeFrom, when non-empty, loads a checkpoint file before training and
	// continues from its epoch instead of starting fresh. The EC trend state
	// is rebuilt from scratch (see Checkpoint) behind a forced exact-sync
	// round on the first post-resume epoch; optimiser trajectory and
	// best-validation bookkeeping carry over exactly.
	ResumeFrom string

	// Elastic, when non-nil, enables live cluster membership: workers join
	// and leave mid-training at epoch boundaries, with incremental
	// repartitioning and state handoff (see ElasticOptions). Scripted
	// changes run from Elastic.Plan; runtime announcements arrive over the
	// transport (supervise.AnnounceJoin/AnnounceLeave against the first
	// parameter server). LeaveOnDeath additionally requires Supervise.
	Elastic *ElasticOptions

	// Supervise, when non-nil, makes training self-healing: workers emit
	// heartbeats to the first parameter server, a phi-accrual failure
	// detector classifies them healthy/suspect/dead, dead workers are
	// respawned and rehydrated mid-run behind a cluster-wide EC reset and
	// forced exact-sync round, suspect peers are skipped in favour of
	// degraded ghost rows, slow calls carry adaptive straggler deadlines,
	// and numeric guards (NaN/Inf, loss spikes) can roll the run back to the
	// latest checkpoint and replay. The zero Options value picks defaults.
	Supervise *supervise.Options

	// Metrics, when non-nil, makes the run export live telemetry on the
	// registry: engine gauges (epoch/loss/accuracy/timing), codec and EC
	// counters, per-worker overlap utilisation, and — with Supervise —
	// detector phi/status. Serve it with obs.Serve. Telemetry never
	// perturbs training (atomic counters only), so instrumented and bare
	// runs stay bitwise identical.
	Metrics *obs.Registry
	// Events, when non-nil, receives one JSONL EpochEvent per worker per
	// completed epoch (see EpochEventSchema).
	Events *obs.EventLog
	// Tracer, when non-nil, records live sub-epoch spans (owned SpMM,
	// ghost collect, fold, per-phase issue marks) from every worker on
	// pid 1+workerID, leaving pid 0 free for the simulated timeline that
	// trace.FromResultInto lays out.
	Tracer *obs.Tracer
}

// costFor returns the cost model governing a node's link.
func (c *Config) costFor(node int) transport.CostModel {
	if node < len(c.NodeCosts) && c.NodeCosts[node] != (transport.CostModel{}) {
		return c.NodeCosts[node]
	}
	return c.Cost
}

// EpochStats records one epoch of training.
//
// All workers time-share one host in this reproduction, so the measured
// wall clock aggregates every machine's compute; ComputeSeconds divides it
// by the worker count to model machines computing in parallel (balanced
// partitions), which is the compute/communication balance a real cluster
// sees. RawComputeSeconds keeps the undivided measurement.
type EpochStats struct {
	ComputeSeconds    float64 // per-machine compute: wall clock / workers
	RawComputeSeconds float64 // measured wall clock of the concurrent workers
	CommSeconds       float64 // simulated network time (max over nodes)
	SimSeconds        float64 // ComputeSeconds + CommSeconds
	Bytes             int64   // total bytes moved across all links
	MaxNodeBytes      int64   // heaviest single node's in+out traffic
	Messages          int64   // round trips initiated
	Loss              float64
	ValAcc            float64
	TestAcc           float64
	FPBits            []int // per-worker forward bit width after tuning

	// ViewGen and ActiveWorkers describe the membership view the epoch ran
	// under (generation 0 and the boot roster on non-elastic runs).
	ViewGen       int
	ActiveWorkers int

	// Fault-tolerance counters, all zero on a healthy transport: attempts
	// retried / timed out / abandoned by the Reliable wrapper (summed over
	// nodes), and ghost exchanges served from stale caches or EC prediction
	// after retries were exhausted (summed over workers).
	Retries         int64
	Timeouts        int64
	GiveUps         int64
	DegradedFetches int
	// StragglerSkips is the subset of DegradedFetches served proactively
	// because the supervision layer flagged the peer suspect.
	StragglerSkips int
}

// Result is the outcome of Train.
type Result struct {
	Epochs []EpochStats

	// Preprocessing: partitioning plus topology build plus the first-hop
	// ghost feature fetch (compute measured, traffic simulated).
	PreprocessSeconds float64

	BestVal      float64
	BestEpoch    int
	TestAccuracy float64 // test accuracy at the best validation epoch

	// FinalParams is the trained flat parameter vector pulled from the
	// servers after the last epoch; load it with Model.SetFlatParams (or
	// core.FinalModel) to run inference.
	FinalParams []float32

	// ConvergedEpoch is the first epoch whose validation accuracy reaches
	// 99.5% of the best observed, the "epochs till convergence" used by the
	// end-to-end comparisons; −1 if training never got there.
	ConvergedEpoch int
	// ConvergenceSimSeconds sums SimSeconds through ConvergedEpoch.
	ConvergenceSimSeconds float64
	// TotalSimSeconds sums preprocessing and every epoch.
	TotalSimSeconds float64

	// SuperviseEvents is the supervision run log: every detector
	// transition, respawn, rehydration, exact-sync, retry and rollback in
	// order. Empty when Config.Supervise is nil.
	SuperviseEvents []supervise.Event
	// Recoveries counts epoch-level recovery actions (retries after worker
	// death or transient failure, plus rollbacks) the supervisor performed.
	Recoveries int

	// FinalView is the membership view in force when training ended;
	// generation 0 over the boot roster on non-elastic runs. FinalAssign is
	// the vertex assignment under it, and MembershipEvents summarises every
	// installed view transition in order.
	FinalView        supervise.View
	FinalAssign      []int
	MembershipEvents []MembershipEvent

	// PartitionStats describes the cut the partitioner produced.
	PartitionStats partition.Stats
	// MemoryFloats is the per-worker count of cached float32s (owned +
	// ghost rows × feature dim), the Table II memory figure.
	MemoryFloats []int64
}

// AvgEpochSeconds returns the mean simulated epoch time.
func (r *Result) AvgEpochSeconds() float64 {
	if len(r.Epochs) == 0 {
		return 0
	}
	var sum float64
	for _, e := range r.Epochs {
		sum += e.SimSeconds
	}
	return sum / float64(len(r.Epochs))
}

// AvgEpochBytes returns the mean per-epoch traffic across all links.
func (r *Result) AvgEpochBytes() float64 {
	if len(r.Epochs) == 0 {
		return 0
	}
	var sum int64
	for _, e := range r.Epochs {
		sum += e.Bytes
	}
	return float64(sum) / float64(len(r.Epochs))
}

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.Dataset == nil {
		return cfg, fmt.Errorf("core: Config.Dataset is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 1
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{16}
	}
	if cfg.Partitioner == nil {
		cfg.Partitioner = partition.Hash{}
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 100
	}
	if cfg.LR == 0 {
		cfg.LR = 0.01
	}
	if cfg.Cost == (transport.CostModel{}) {
		cfg.Cost = transport.GigabitEthernet()
	}
	if cfg.Worker.FPBits == 0 {
		cfg.Worker.FPBits = 4
	}
	if cfg.Worker.BPBits == 0 {
		cfg.Worker.BPBits = 4
	}
	if cfg.Worker.Ttr == 0 {
		cfg.Worker.Ttr = 10
	}
	if cfg.Heads <= 0 {
		cfg.Heads = 1
	}
	if err := checkBits("FPBits", cfg.Worker.FPScheme, cfg.Worker.FPBits); err != nil {
		return cfg, err
	}
	if err := checkBits("BPBits", cfg.Worker.BPScheme, cfg.Worker.BPBits); err != nil {
		return cfg, err
	}
	if cfg.Kind != nn.KindGAT {
		if cfg.Heads != 1 {
			return cfg, fmt.Errorf("core: Config.Heads applies to GAT only, got %d for %v", cfg.Heads, cfg.Kind)
		}
		return cfg, nil
	}
	for _, h := range cfg.Hidden {
		if h%cfg.Heads != 0 {
			return cfg, fmt.Errorf("core: GAT hidden width %d does not divide into %d heads", h, cfg.Heads)
		}
	}
	// A GAT model has no file format (nn.Save refuses it), and elastic
	// handoff moves GCN-shaped layer state only.
	switch {
	case cfg.Elastic != nil:
		return cfg, fmt.Errorf("core: Config.Elastic is not supported for GAT")
	case cfg.CheckpointPath != "" || cfg.ResumeFrom != "":
		return cfg, fmt.Errorf("core: Config.CheckpointPath/ResumeFrom are not supported for GAT")
	}
	return cfg, nil
}

// checkBits rejects a width the scheme's codec cannot run at.
func checkBits(field string, scheme worker.Scheme, bits int) error {
	if scheme.TakesBits(bits) {
		return nil
	}
	return fmt.Errorf("core: Config.Worker.%s = %d is not a width the %v scheme takes (%v)",
		field, bits, scheme, compress.ValidBits)
}

// newModel builds the run's model: a replica, the parameter template or the
// shell a checkpoint or the final parameters are loaded into. Every call
// draws the same initial parameters.
func (c *Config) newModel(dims []int) *nn.Model {
	if c.Kind == nn.KindGAT {
		return nn.NewGAT(dims, c.Heads, c.Seed)
	}
	return nn.NewModel(c.Kind, dims, c.Seed)
}

// Train runs the full distributed training pipeline and returns its result.
func Train(c Config) (*Result, error) {
	cfg, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	d := cfg.Dataset
	dims := append([]int{d.NumFeatures()}, cfg.Hidden...)
	dims = append(dims, d.NumClasses)

	res := &Result{ConvergedEpoch: -1}

	// ---- Preprocessing: partition, topology, cluster wiring ----
	preStart := time.Now()
	adj := graph.Normalize(d.Graph)
	// Elastic runs reserve node-id space for workers that may join later:
	// workers occupy ids 0..maxWorkers-1 (the active subset varies per
	// view) and servers sit above at maxWorkers..maxWorkers+Servers-1.
	// Non-elastic runs have maxWorkers == Workers, the historical layout.
	maxWorkers := cfg.Workers
	var plan []MembershipChange
	if cfg.Elastic != nil {
		if cfg.Elastic.LeaveOnDeath && cfg.Supervise == nil {
			return nil, fmt.Errorf("core: Elastic.LeaveOnDeath requires Config.Supervise")
		}
		var perr error
		plan, maxWorkers, perr = normalizePlan(cfg.Elastic, cfg.Workers)
		if perr != nil {
			return nil, perr
		}
	}
	if cfg.PSReplicas < 0 || cfg.PSReplicas > 1 {
		return nil, fmt.Errorf("core: PSReplicas must be 0 or 1, got %d", cfg.PSReplicas)
	}
	if cfg.PSFailover {
		if cfg.Supervise == nil {
			return nil, fmt.Errorf("core: PSFailover requires Config.Supervise")
		}
		if cfg.PSReplicas < 1 {
			return nil, fmt.Errorf("core: PSFailover requires PSReplicas >= 1")
		}
	}
	// Node layout: workers 0..maxWorkers-1, PS primaries above them, PS
	// backups (when replicated) above the primaries.
	totalNodes := maxWorkers + cfg.Servers*(1+cfg.PSReplicas)

	assign := cfg.Partitioner.Partition(d.Graph, cfg.Workers)
	res.PartitionStats = partition.Analyze(d.Graph, assign, cfg.Workers)
	topo := worker.BuildTopology(d.Graph, assign, maxWorkers)

	net := cfg.Net
	if net == nil {
		net = transport.NewInProc(totalNodes)
		defer net.Close()
	}

	template := cfg.newModel(dims)
	flat := template.FlattenParams()
	ranges := ps.Ranges(len(flat), cfg.Servers)
	tier := newPSTier(&cfg, net, flat, ranges, maxWorkers)

	// Supervision: heartbeats from every worker land on the monitor —
	// initially the first parameter server, re-elected to another PS node if
	// it dies — whose handler is wrapped with the supervision RPCs. The
	// supervisor exists before the workers so they can consult it (as their
	// PeerHealth) inside the ghost exchange. With Elastic the membership
	// manager wraps the same chain, so join/leave announcements and
	// heartbeats share the monitor's handler. tier.install wraps EVERY PS
	// node — primary and backup alike — so any of them can inherit monitor
	// duty without a handler swap.
	var sup *supervise.Supervisor
	var mem *supervise.Membership
	if cfg.Supervise != nil {
		workerNodes := make([]int, cfg.Workers)
		for i := range workerNodes {
			workerNodes[i] = i
		}
		sup = supervise.New(*cfg.Supervise, net, workerNodes, tier.monitor())
	}
	if cfg.Elastic != nil {
		bootRoster := make([]int, cfg.Workers)
		for i := range bootRoster {
			bootRoster[i] = i
		}
		mem = supervise.NewMembership(bootRoster)
	}
	tier.install(sup, mem, cfg.Metrics)

	// Telemetry: codec totals, detector state and engine gauges all hang
	// off the same registry (every Register* is a no-op on nil).
	compress.RegisterMetrics(cfg.Metrics)
	if sup != nil {
		sup.RegisterMetrics(cfg.Metrics)
	}
	eng := newEngineObs(cfg.Metrics)

	// Resume: overwrite every server's range with the checkpointed state.
	// The checkpoint stores full-length vectors, so the re-split works even
	// under a different server count than the run that wrote it.
	startEpoch := 0
	if cfg.ResumeFrom != "" {
		ckpt, err := LoadCheckpointFile(cfg.ResumeFrom)
		if err != nil {
			return nil, fmt.Errorf("core: resume: %w", err)
		}
		if err := ckpt.compatibleWith(cfg.Kind, dims); err != nil {
			return nil, fmt.Errorf("core: resume from %s: %w", cfg.ResumeFrom, err)
		}
		if err := restoreServers(tier.primaries, ranges, ckpt); err != nil {
			return nil, fmt.Errorf("core: resume: %w", err)
		}
		if err := tier.restoreBackups(); err != nil {
			return nil, fmt.Errorf("core: resume: %w", err)
		}
		startEpoch = ckpt.Epoch
		res.BestVal = ckpt.BestVal
		res.BestEpoch = ckpt.BestEpoch
		res.TestAccuracy = ckpt.TestAtBest
	}

	nTrain := len(d.TrainIdx())
	var health worker.PeerHealth
	if sup != nil {
		health = sup
	}

	// The cluster owns every piece of roster-dependent state — assignment,
	// topology, active ids, worker objects. Workers are always built from
	// its CURRENT topology, so respawns after a view change see the roster
	// in force, never the boot-time one.
	cl := &cluster{
		cfg: &cfg, dims: dims, adj: adj, nTrain: nTrain, net: net,
		maxWorkers: maxWorkers, tier: tier,
		ranges: ranges, sup: sup, mem: mem, health: health,
		mobs: newMembershipObs(cfg.Metrics), tracer: cfg.Tracer,
		assign: assign, topo: topo,
		workers: make(map[int]*worker.Worker),
		dead:    make(map[int]bool),
		plan:    plan,
	}
	for i := 0; i < cfg.Workers; i++ {
		cl.active = append(cl.active, i)
	}
	// Worker handlers are wrapped too so worker nodes answer sup.ping —
	// liveness probes must reach the same handler chain as ghost traffic.
	for _, id := range cl.active {
		w := cl.newWorker(id)
		cl.workers[id] = w
		cl.registerWorker(id, w)
		res.MemoryFloats = append(res.MemoryFloats,
			int64(w.NumOwned()+w.NumGhosts())*int64(d.NumFeatures()))
	}
	cl.mobs.activeWorkers.Set(float64(len(cl.active)))

	// First-hop ghost feature fetch (the static layer-0 cache).
	if err := runAll(cl.workerList(), func(w *worker.Worker) error { return w.FetchGhostFeatures() }); err != nil {
		return nil, err
	}
	// A resumed run restarts with empty EC state on both ends of every pair
	// while the optimiser continues mid-trajectory; force an exact boundary
	// on the first post-resume round so trend baselines — and with them the
	// selector and prediction-based degraded mode — rebuild immediately
	// instead of compressing blind until the next scheduled T_tr boundary.
	if cfg.ResumeFrom != "" {
		for _, w := range cl.workerList() {
			w.ForceExactSync()
		}
	}
	preCompute := time.Since(preStart).Seconds()
	res.PreprocessSeconds = preCompute + maxNodeCommTime(net, &cfg, totalNodes)
	net.ResetStats()

	var sv *supervisedRun
	if sup != nil {
		sup.Start()
		defer sup.Stop()
		sv = newSupervisedRun(&cfg, sup, net, cl, dims, startEpoch, res)
	}

	// ---- Training epochs ----
	ckptEvery := cfg.CheckpointEvery
	if ckptEvery <= 0 {
		ckptEvery = 10
	}
	valIdx, testIdx := d.ValIdx(), d.TestIdx()
	// Per-active-worker slices of the epoch in flight: the worker reports,
	// each worker node's transport snapshot and simulated link time, captured
	// by runEpoch before the counters are reset so the event log can
	// attribute traffic per worker. Allocated per epoch because the roster
	// changes under elastic membership; epochIDs records which node each
	// index belongs to.
	var epochIDs []int
	var reports []worker.EpochReport
	var workerStats []transport.Stats
	var workerComm []float64
	supCursor := 0   // supervision log entries already emitted to the event log
	memEvCursor := 0 // membership log entries already emitted to the event log
	memCursor := 0   // view transitions already emitted to the event log
	lastVersion := startEpoch

	// runEpoch executes one training iteration and assembles its stats.
	// Counters are only reset after a successful epoch, so the traffic of a
	// failed attempt and its recovery — and of any view transition, whose
	// handoff payloads travel the same links — is charged to the epoch that
	// finally completes, visible in the per-epoch fault columns rather than
	// silently discarded.
	runEpoch := func(t int) (EpochStats, *tensor.Matrix, error) {
		ws := cl.workerList()
		epochIDs = append(epochIDs[:0], cl.active...)
		reports = make([]worker.EpochReport, len(ws))
		workerStats = make([]transport.Stats, len(ws))
		workerComm = make([]float64, len(ws))
		epochStart := time.Now()
		if err := runAllIdx(ws, func(i int, w *worker.Worker) error {
			var err error
			reports[i], err = w.RunEpoch(t)
			return err
		}); err != nil {
			return EpochStats{}, nil, err
		}
		wall := time.Since(epochStart).Seconds()
		stats := EpochStats{
			RawComputeSeconds: wall,
			// The virtual clock divides by the machines actually computing
			// this epoch, so epoch time shrinks as workers join.
			ComputeSeconds: wall / float64(len(ws)),
			ActiveWorkers:  len(ws),
		}
		if mem != nil {
			stats.ViewGen = mem.View().Gen
		}

		var totalBytes, maxBytes, msgs int64
		var maxComm float64
		// Every node in the id space is counted, not just the active ones: a
		// departed worker's last traffic and the handoff bytes it shipped on
		// its way out still crossed real links.
		for node := 0; node < totalNodes; node++ {
			s := net.NodeStats(node)
			totalBytes += s.BytesOut // each byte counted once at its sender
			msgs += s.Messages
			stats.Retries += s.Retries
			stats.Timeouts += s.Timeouts
			stats.GiveUps += s.GiveUps
			if s.Total() > maxBytes {
				maxBytes = s.Total()
			}
			c := cfg.costFor(node).TimeFor(s)
			if c > maxComm {
				maxComm = c
			}
		}
		for i, id := range epochIDs {
			s := net.NodeStats(id)
			workerStats[i] = s
			workerComm[i] = cfg.costFor(id).TimeFor(s)
		}
		stats.Bytes = totalBytes
		stats.MaxNodeBytes = maxBytes
		stats.Messages = msgs
		stats.CommSeconds = maxComm
		stats.SimSeconds = stats.ComputeSeconds + stats.CommSeconds

		var lossSum float64
		for i := range reports {
			lossSum += reports[i].LocalLossSum
			stats.FPBits = append(stats.FPBits, reports[i].FPBits)
			stats.DegradedFetches += reports[i].DegradedFetches
			stats.StragglerSkips += reports[i].StragglerSkips
		}
		if nTrain > 0 {
			stats.Loss = lossSum / float64(nTrain)
		}

		logits := gatherLogits(net, epochIDs, t, d.Graph.N, d.NumClasses)
		stats.ValAcc = nn.Accuracy(logits, d.Labels, valIdx)
		stats.TestAcc = nn.Accuracy(logits, d.Labels, testIdx)
		return stats, logits, nil
	}

	for t := startEpoch; t < cfg.Epochs; {
		if cfg.EpochHook != nil {
			cfg.EpochHook(t)
		}
		// Epoch boundary: install any pending membership change before the
		// epoch runs, so no epoch ever observes two rosters.
		if _, err := cl.maybeTransition(t); err != nil {
			return nil, err
		}
		stats, logits, err := runEpoch(t)
		if err == nil && sv != nil {
			if reason := sv.guardReason(stats, logits); reason != "" {
				next, rerr := sv.guardTripped(t, reason)
				if rerr != nil {
					return nil, rerr
				}
				t = next
				continue
			}
		}
		if err != nil {
			if sv == nil {
				return nil, err
			}
			next, rerr := sv.recover(t, err)
			if rerr != nil {
				return nil, rerr
			}
			t = next
			continue
		}
		eng.observeEpoch(t, &stats)
		var supSince []supervise.Event
		if cfg.Events != nil {
			if sup != nil {
				evs := sup.Events()
				supSince = append(supSince, evs[supCursor:]...)
				supCursor = len(evs)
			}
			if mem != nil {
				evs := mem.Events()
				supSince = append(supSince, evs[memEvCursor:]...)
				memEvCursor = len(evs)
			}
		}
		memSince := cl.transitions[memCursor:]
		memCursor = len(cl.transitions)
		emitEpochEvents(cfg.Events, t, &stats, epochIDs, reports, workerStats, workerComm, supSince, memSince)
		net.ResetStats()
		if sv != nil {
			sv.noteSuccess(t)
			// Epoch boundary housekeeping: re-sync stale backups and respawn
			// missing ones whose node answers probes again.
			tier.maintain(t)
		}

		if stats.ValAcc > res.BestVal {
			res.BestVal = stats.ValAcc
			res.BestEpoch = t
			res.TestAccuracy = stats.TestAcc
		}
		res.Epochs = append(res.Epochs, stats)
		lastVersion = t + 1

		stop := cfg.Patience > 0 && t-res.BestEpoch >= cfg.Patience
		if cfg.CheckpointPath != "" && ((t+1)%ckptEvery == 0 || t == cfg.Epochs-1 || stop) {
			// Between epochs every worker is idle, so the servers are
			// quiescent at version t+1 and the snapshot is consistent.
			if err := writeCheckpoint(cfg.CheckpointPath, &cfg, dims, tier.primaries, ranges, t+1, res); err != nil {
				return nil, fmt.Errorf("core: checkpoint at epoch %d: %w", t+1, err)
			}
		}
		if stop {
			break
		}
		t++
	}

	// Convergence bookkeeping.
	threshold := 0.995 * res.BestVal
	var cum float64
	for t, e := range res.Epochs {
		cum += e.SimSeconds
		if res.ConvergedEpoch == -1 && e.ValAcc >= threshold {
			// res.Epochs is indexed from this run's first epoch; offset so a
			// resumed run reports the same global numbering as BestEpoch.
			res.ConvergedEpoch = startEpoch + t
			res.ConvergenceSimSeconds = cum
		}
	}
	res.TotalSimSeconds = res.PreprocessSeconds + cum

	// Export the trained parameters for inference/checkpointing.
	// lastVersion, not len(res.Epochs): a resumed run's first epoch already
	// left the servers past version len(res.Epochs). The pull issues from an
	// active worker node — node 0 may have left the cluster — and resolves
	// through the route table, so it reaches promoted backups too.
	finalClient := ps.NewClientRoutes(net, cl.active[0], tier.routes, ranges)
	res.FinalParams, err = finalClient.Pull(lastVersion)
	if err != nil {
		return nil, fmt.Errorf("core: pull final params: %w", err)
	}
	if sv != nil {
		res.SuperviseEvents = sup.Events()
		res.Recoveries = sv.recoveries
	}
	if mem != nil {
		res.SuperviseEvents = append(res.SuperviseEvents, mem.Events()...)
		res.FinalView = mem.View()
	} else {
		res.FinalView = supervise.View{Members: append([]int(nil), cl.active...)}
	}
	res.FinalAssign = append([]int(nil), cl.assign...)
	res.MembershipEvents = cl.transitions
	return res, nil
}

// restoreServers overwrites every server's range from a checkpoint's
// full-length state; shared by resume and supervised rollback.
func restoreServers(servers []*ps.Server, ranges []ps.Range, ckpt *Checkpoint) error {
	ckptFlat := ckpt.Model.FlattenParams()
	for i, srv := range servers {
		rg := ranges[i]
		if err := srv.Restore(ps.State{
			Params:  ckptFlat[rg.Lo:rg.Hi],
			AdamM:   ckpt.AdamM[rg.Lo:rg.Hi],
			AdamV:   ckpt.AdamV[rg.Lo:rg.Hi],
			AdamT:   ckpt.AdamT,
			LR:      ckpt.LR,
			Version: ckpt.Epoch,
		}); err != nil {
			return fmt.Errorf("restore server %d: %w", i, err)
		}
	}
	return nil
}

// compatibleWith verifies a checkpoint matches the run's architecture.
func (c *Checkpoint) compatibleWith(kind nn.Kind, dims []int) error {
	if c.Model.Kind != kind {
		return fmt.Errorf("checkpoint is %v, config wants %v", c.Model.Kind, kind)
	}
	if len(c.Model.Dims) != len(dims) {
		return fmt.Errorf("checkpoint dims %v, config wants %v", c.Model.Dims, dims)
	}
	for i, d := range dims {
		if c.Model.Dims[i] != d {
			return fmt.Errorf("checkpoint dims %v, config wants %v", c.Model.Dims, dims)
		}
	}
	return nil
}

// writeCheckpoint concatenates the per-range server snapshots into one
// full-length state and writes it atomically.
func writeCheckpoint(path string, cfg *Config, dims []int, servers []*ps.Server, ranges []ps.Range, epoch int, res *Result) error {
	total := ranges[len(ranges)-1].Hi
	params := make([]float32, total)
	adamM := make([]float64, total)
	adamV := make([]float64, total)
	var adamT int
	var lr float64
	for i, srv := range servers {
		st := srv.Snapshot()
		rg := ranges[i]
		copy(params[rg.Lo:rg.Hi], st.Params)
		copy(adamM[rg.Lo:rg.Hi], st.AdamM)
		copy(adamV[rg.Lo:rg.Hi], st.AdamV)
		adamT, lr = st.AdamT, st.LR
	}
	model := cfg.newModel(dims)
	model.SetFlatParams(params)
	ck := &Checkpoint{
		Epoch:      epoch,
		BestVal:    res.BestVal,
		BestEpoch:  res.BestEpoch,
		TestAtBest: res.TestAccuracy,
		Model:      model,
		AdamM:      adamM,
		AdamV:      adamV,
		AdamT:      adamT,
		LR:         lr,
	}
	return ck.SaveFile(path)
}

// FinalModel reconstructs the trained model from a finished run.
func FinalModel(c Config, res *Result) (*nn.Model, error) {
	cfg, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	dims := append([]int{cfg.Dataset.NumFeatures()}, cfg.Hidden...)
	dims = append(dims, cfg.Dataset.NumClasses)
	m := cfg.newModel(dims)
	if len(res.FinalParams) != m.ParamCount() {
		return nil, fmt.Errorf("core: result holds %d params, model wants %d", len(res.FinalParams), m.ParamCount())
	}
	m.SetFlatParams(res.FinalParams)
	return m, nil
}

// runAll executes f concurrently on every worker, returning the first error.
func runAll(workers []*worker.Worker, f func(*worker.Worker) error) error {
	return runAllIdx(workers, func(_ int, w *worker.Worker) error { return f(w) })
}

// runAllIdx is runAll with the worker's index supplied.
func runAllIdx(workers []*worker.Worker, f func(int, *worker.Worker) error) error {
	errs := make(chan error, len(workers))
	for i, w := range workers {
		go func(i int, w *worker.Worker) { errs <- f(i, w) }(i, w)
	}
	var first error
	for range workers {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// gatherLogits assembles the global logits matrix from the owned rows of
// the workers at the given node ids. Calls are node-local (src == dst) so
// evaluation is not charged to the simulated network.
func gatherLogits(net transport.Network, ids []int, epoch, n, classes int) *tensor.Matrix {
	out := tensor.New(n, classes)
	req := transport.NewWriter(4)
	req.Uint32(uint32(epoch))
	for _, i := range ids {
		resp, err := net.Call(i, i, worker.MethodLogits, req.Bytes())
		if err != nil {
			panic(fmt.Sprintf("core: gather logits from worker %d: %v", i, err))
		}
		r := transport.NewReader(resp)
		ids := r.Int32s()
		m := r.Matrix()
		for k, id := range ids {
			copy(out.Row(int(id)), m.Row(k))
		}
	}
	return out
}

// maxNodeCommTime converts current counters into the slowest node's
// simulated network time under the per-node cost models.
func maxNodeCommTime(net transport.Network, cfg *Config, nodes int) float64 {
	var worst float64
	for node := 0; node < nodes; node++ {
		if c := cfg.costFor(node).TimeFor(net.NodeStats(node)); c > worst {
			worst = c
		}
	}
	return worst
}
