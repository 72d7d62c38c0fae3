package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecgraph/internal/ps"
	"ecgraph/internal/supervise"
	"ecgraph/internal/transport"
	"ecgraph/internal/worker"
)

// seqOutage reimplements the pre-pipelining crash-window semantics for the
// recovery tests: ONE shared sequence over all eligible remote calls, with a
// node taken offline while the sequence is inside its [From, To) window.
// transport.Chaos now draws per-(src,dst) sequences so seeded fault schedules
// stay byte-identical under concurrent fan-out, which makes "take node 1 down
// for calls 40-900 of the whole run" — exactly the single-timeline outage a
// detect → respawn → rehydrate test needs — inexpressible there. Failed
// attempts advance the sequence, so retries burn through a window just like a
// wall-clock outage.
type seqOutage struct {
	transport.Network
	methods map[string]bool
	windows []transport.CrashWindow
	seq     atomic.Int64
	crashed atomic.Int64
}

func newSeqOutage(inner transport.Network, windows []transport.CrashWindow, methods []string) *seqOutage {
	ms := make(map[string]bool, len(methods))
	for _, m := range methods {
		ms[m] = true
	}
	return &seqOutage{Network: inner, methods: ms, windows: windows}
}

func (s *seqOutage) Call(src, dst int, method string, req []byte) ([]byte, error) {
	if src != dst && (len(s.methods) == 0 || s.methods[method]) {
		n := s.seq.Add(1)
		for _, w := range s.windows {
			if (w.Node == src || w.Node == dst) && n >= w.From && n < w.To {
				s.crashed.Add(1)
				return nil, fmt.Errorf("outage: node %d down (call %d in window [%d,%d)): %w",
					w.Node, n, w.From, w.To, transport.ErrInjected)
			}
		}
	}
	return s.Network.Call(src, dst, method, req)
}

// CallMulti routes through the wrapper's own Call so batched calls advance
// the shared sequence too.
func (s *seqOutage) CallMulti(src int, calls []transport.Call) []transport.Result {
	return transport.SequentialMulti(s, src, calls)
}

// nodeOutage takes one node offline for a detect → respawn → rehydrate
// test: every eligible call to or from it fails from its from-th training
// call (getH, getG, pull, push) until pings pings to it have failed.
// Heartbeats fail inside the window but advance neither bound, so however
// many a slow run sends, the window cannot drain before recovery probes it.
type nodeOutage struct {
	transport.Network
	node             int
	from, pings      int64
	methods          map[string]bool
	training, pinged atomic.Int64
	crashed          atomic.Int64
}

func (o *nodeOutage) Call(src, dst int, method string, req []byte) ([]byte, error) {
	if src != dst && (src == o.node || dst == o.node) && o.methods[method] {
		down := false
		switch method {
		case worker.MethodGetH, worker.MethodGetG, ps.MethodPull, ps.MethodPush:
			down = o.training.Add(1) >= o.from && o.pinged.Load() < o.pings
		case supervise.MethodPing:
			down = dst == o.node && o.training.Load() >= o.from && o.pinged.Add(1) <= o.pings
		default:
			down = o.training.Load() >= o.from && o.pinged.Load() < o.pings
		}
		if down {
			o.crashed.Add(1)
			return nil, fmt.Errorf("outage: node %d down (%s): %w", o.node, method, transport.ErrInjected)
		}
	}
	return o.Network.Call(src, dst, method, req)
}

// CallMulti routes through the wrapper's own Call so batched calls count.
func (o *nodeOutage) CallMulti(src int, calls []transport.Call) []transport.Result {
	return transport.SequentialMulti(o, src, calls)
}

// ecCoraConfig is coraConfig with error-compensated compression in both
// directions — the supervised tests must prove recovery works with live EC
// state (baselines, residuals), not just raw exchanges.
func ecCoraConfig(epochs int) Config {
	cfg := coraConfig(epochs)
	cfg.Worker = worker.Options{
		FPScheme: worker.SchemeEC, BPScheme: worker.SchemeEC,
		FPBits: 2, BPBits: 2, Ttr: 10,
	}
	return cfg
}

// fastSupervision returns supervision options scaled for in-process tests:
// millisecond heartbeats so detection fits in a test run, and a generous
// probe budget so a crash window is always drained before rollback.
func fastSupervision() *supervise.Options {
	return &supervise.Options{
		HeartbeatInterval: 5 * time.Millisecond,
		ProbeBudget:       5 * time.Second,
		// A generous straggler-deadline floor: in-proc ghost calls take
		// microseconds, but a full-suite race-detector run loads the machine
		// enough that a call can stall past 8x its EWMA and the 2ms default
		// floor, silently degrading fetches in tests that assert clean-run
		// equivalence. Crash detection rides on heartbeats, not deadlines,
		// so the recovery tests don't care.
		MinDeadline: 500 * time.Millisecond,
	}
}

// trainingMethods lists every RPC that should be eligible for chaos in the
// supervised crash tests: training traffic AND the supervision plane, so a
// crashed node's heartbeats are silenced exactly like its ghost exchanges.
func trainingMethods() []string {
	return []string{
		worker.MethodGetH, worker.MethodGetG,
		ps.MethodPull, ps.MethodPush,
		supervise.MethodBeat, supervise.MethodPing,
	}
}

// eventKinds projects the supervision log onto its kinds.
func eventKinds(events []supervise.Event) []supervise.EventKind {
	kinds := make([]supervise.EventKind, len(events))
	for i, e := range events {
		kinds[i] = e.Kind
	}
	return kinds
}

// assertEventOrder checks that want appears as a subsequence of the log.
func assertEventOrder(t *testing.T, events []supervise.Event, want []supervise.EventKind) {
	t.Helper()
	i := 0
	for _, k := range eventKinds(events) {
		if i < len(want) && k == want[i] {
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("supervision log missing %v (matched %d/%d) in:\n%v", want, i, len(want), events)
	}
}

// TestSupervisedCrashRecovery is the headline acceptance test: a crash
// window takes worker 1 offline mid-training — heartbeats, probes and
// training calls all fail — and the supervised engine must detect the
// death, respawn and rehydrate the worker, force an exact-sync round and
// retry, landing within one accuracy point of the fault-free run. The run
// log must record the full detect → respawn → rehydrate → exact-sync
// sequence.
func TestSupervisedCrashRecovery(t *testing.T) {
	const epochs = 30
	clean, err := Train(ecCoraConfig(epochs))
	if err != nil {
		t.Fatal(err)
	}

	cfg := ecCoraConfig(epochs)
	cfg.Supervise = fastSupervision()
	nodes := cfg.Workers + cfg.Servers
	// The window opens at worker 1's 40th training call, in epoch 3, and
	// closes after 150 failed pings to it. The settle wait probes every
	// ProbeInterval for at most DeadAfter + HeartbeatInterval (≤ 33 probes of
	// ≤ 2 attempts each), so the detector has declared worker 1 dead before
	// the window closes; AwaitReachable's probes then drain the rest,
	// modelling a node restart.
	outage := &nodeOutage{Network: transport.NewInProc(nodes), node: 1, from: 40, pings: 150, methods: map[string]bool{}}
	for _, m := range trainingMethods() {
		outage.methods[m] = true
	}
	cfg.Net = transport.NewReliable(outage, nodes, transport.ReliableConfig{
		MaxAttempts: 2,
		BaseBackoff: 50 * time.Microsecond,
		MaxBackoff:  time.Millisecond,
		Seed:        11,
	})
	defer cfg.Net.Close()

	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if outage.crashed.Load() == 0 {
		t.Fatalf("crash window never hit")
	}
	if res.Recoveries == 0 {
		t.Fatalf("no recoveries recorded through a crash window of %d failed calls", outage.crashed.Load())
	}
	assertEventOrder(t, res.SuperviseEvents, []supervise.EventKind{
		supervise.EventDead, supervise.EventRespawn, supervise.EventRehydrate,
		supervise.EventExactSync, supervise.EventRetry, supervise.EventRecovered,
	})
	for _, e := range res.SuperviseEvents {
		if (e.Kind == supervise.EventRespawn || e.Kind == supervise.EventRehydrate) && e.Worker != 1 {
			t.Fatalf("recovery acted on worker %d, crash window was on worker 1: %v", e.Worker, e)
		}
	}
	if len(res.Epochs) != epochs {
		t.Fatalf("trained %d epochs, want %d", len(res.Epochs), epochs)
	}
	if diff := math.Abs(res.TestAccuracy - clean.TestAccuracy); diff > 0.01 {
		t.Fatalf("recovered run accuracy %.4f vs clean %.4f (|diff| %.4f > 0.01)",
			res.TestAccuracy, clean.TestAccuracy, diff)
	}
}

// TestSupervisedPartialBarrierRetry crashes worker 1's parameter pushes
// across an epoch's push barrier: peers complete their half of the barrier,
// worker 1 gives up, and the supervised retry must converge through the
// idempotent push path (already-applied pushes acknowledge silently).
// Chaos is restricted to ps.push, so probes always succeed and the
// recovery exercises the transient-retry path rather than a respawn.
func TestSupervisedPartialBarrierRetry(t *testing.T) {
	const epochs = 20
	clean, err := Train(ecCoraConfig(epochs))
	if err != nil {
		t.Fatal(err)
	}

	cfg := ecCoraConfig(epochs)
	cfg.Supervise = fastSupervision()
	nodes := cfg.Workers + cfg.Servers
	inner := transport.NewInProc(nodes)
	// 6 pushes per epoch (3 workers x 2 servers): epoch 0 is calls 1-6, so
	// [7, 30) straddles the epoch 1 barrier and outlives first retries.
	outage := newSeqOutage(inner,
		[]transport.CrashWindow{{Node: 1, From: 7, To: 30}}, []string{ps.MethodPush})
	cfg.Net = transport.NewReliable(outage, nodes, transport.ReliableConfig{
		MaxAttempts: 2,
		BaseBackoff: 50 * time.Microsecond,
		MaxBackoff:  time.Millisecond,
		Seed:        5,
	})
	defer cfg.Net.Close()

	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if outage.crashed.Load() == 0 {
		t.Fatalf("push crash window never hit")
	}
	if res.Recoveries == 0 {
		t.Fatalf("partial push barrier did not trigger a recovery")
	}
	assertEventOrder(t, res.SuperviseEvents, []supervise.EventKind{
		supervise.EventExactSync, supervise.EventRetry, supervise.EventRecovered,
	})
	if len(res.Epochs) != epochs {
		t.Fatalf("trained %d epochs, want %d", len(res.Epochs), epochs)
	}
	// Which worker's pushes land inside the window depends on how the three
	// workers' concurrent pushes interleave, so the partial barrier — and the
	// retried trajectory — varies slightly run to run. Two accuracy points
	// bounds the recovery error without asserting a particular interleaving.
	if diff := math.Abs(res.TestAccuracy - clean.TestAccuracy); diff > 0.02 {
		t.Fatalf("retried run accuracy %.4f vs clean %.4f (|diff| %.4f > 0.02)",
			res.TestAccuracy, clean.TestAccuracy, diff)
	}
}

// corruptingNet wraps a Network and overwrites the trailing float of one
// chosen ps.push request with NaN — a bit-flip-style corruption that
// poisons the server's optimiser state and surfaces as non-finite logits
// one epoch later. Only pushes to targetDst are counted: the last server's
// range ends at the model's final output bias, a parameter every forward
// pass consumes (the sparse matmul skips zero activations, so a poisoned
// weight in a dead feature column would never reach the logits).
type corruptingNet struct {
	transport.Network
	mu         sync.Mutex
	targetDst  int
	pushes     int
	targetPush int
	fired      bool
}

func (c *corruptingNet) Call(src, dst int, method string, req []byte) ([]byte, error) {
	if method == ps.MethodPush && dst == c.targetDst {
		c.mu.Lock()
		c.pushes++
		hit := !c.fired && c.pushes == c.targetPush
		if hit {
			c.fired = true
		}
		c.mu.Unlock()
		if hit && len(req) >= 4 {
			poisoned := append([]byte(nil), req...)
			binary.LittleEndian.PutUint32(poisoned[len(poisoned)-4:],
				math.Float32bits(float32(math.NaN())))
			req = poisoned
		}
	}
	return c.Network.Call(src, dst, method, req)
}

// CallMulti must route through the fake's own Call so batched pushes still
// hit the corruption trigger.
func (c *corruptingNet) CallMulti(src int, calls []transport.Call) []transport.Result {
	return transport.SequentialMulti(c, src, calls)
}

// TestNaNGuardRollbackReplay is the second acceptance test: injected NaNs
// must trip the numeric guard, roll the run back to the last checkpoint and
// replay to convergence instead of finishing with a poisoned model.
func TestNaNGuardRollbackReplay(t *testing.T) {
	const epochs = 24
	clean, err := Train(ecCoraConfig(epochs))
	if err != nil {
		t.Fatal(err)
	}

	cfg := ecCoraConfig(epochs)
	sup := fastSupervision()
	sup.AutoRollback = true
	cfg.Supervise = sup
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "guard.ckpt")
	cfg.CheckpointEvery = 5
	nodes := cfg.Workers + cfg.Servers
	// Corrupt the first epoch-7 push to the last server (3 pushes per epoch
	// per server), after the epoch-5 checkpoint exists: the poisoned final
	// output bias reaches every logit at version 8, the guard fires on epoch
	// 8, and the rollback must land on the epoch-5 checkpoint.
	cnet := &corruptingNet{
		Network:    transport.NewInProc(nodes),
		targetDst:  nodes - 1,
		targetPush: 3*7 + 1,
	}
	cfg.Net = cnet
	defer cfg.Net.Close()

	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if !cnet.fired {
		t.Fatalf("corruption never injected (%d pushes seen)", cnet.pushes)
	}
	assertEventOrder(t, res.SuperviseEvents, []supervise.EventKind{
		supervise.EventGuardTrip, supervise.EventRollback, supervise.EventExactSync,
	})
	var rolledBackTo = -1
	for _, e := range res.SuperviseEvents {
		if e.Kind == supervise.EventRollback {
			rolledBackTo = e.Epoch
		}
	}
	if rolledBackTo != 8 {
		t.Fatalf("rollback recorded at epoch %d, want the guard epoch 8", rolledBackTo)
	}
	if len(res.Epochs) != epochs {
		t.Fatalf("replayed run has %d epochs, want %d", len(res.Epochs), epochs)
	}
	for tEpoch, e := range res.Epochs {
		if math.IsNaN(e.Loss) || math.IsInf(e.Loss, 0) {
			t.Fatalf("non-finite loss %v at epoch %d survived the rollback", e.Loss, tEpoch)
		}
	}
	if diff := math.Abs(res.TestAccuracy - clean.TestAccuracy); diff > 0.01 {
		t.Fatalf("replayed accuracy %.4f vs clean %.4f (|diff| %.4f > 0.01)",
			res.TestAccuracy, clean.TestAccuracy, diff)
	}
}

// TestSupervisedCleanRunIsNoOp: on a healthy cluster the supervision layer
// must not change training — no recoveries, no respawns, and the same
// result. Heartbeat handlers race RunEpoch the whole time, so this test
// doubles as the -race exercise for the supervision plane.
func TestSupervisedCleanRunIsNoOp(t *testing.T) {
	const epochs = 15
	clean, err := Train(ecCoraConfig(epochs))
	if err != nil {
		t.Fatal(err)
	}

	cfg := ecCoraConfig(epochs)
	cfg.Supervise = fastSupervision()
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if res.Recoveries != 0 {
		t.Fatalf("%d recoveries on a healthy cluster: %v", res.Recoveries, res.SuperviseEvents)
	}
	for _, e := range res.SuperviseEvents {
		switch e.Kind {
		case supervise.EventRespawn, supervise.EventRollback, supervise.EventGuardTrip:
			t.Fatalf("destructive supervision event on a healthy cluster: %v", e)
		}
	}
	// On an idle machine no fetch degrades and the runs must match almost
	// exactly. Under heavy load (the full suite under -race saturates every
	// core) the 5ms heartbeats hiccup, the phi detector marks transient
	// suspects, and peers legitimately serve trend-predicted ghost rows —
	// the cluster is genuinely degraded, not mishandled, so only a looser
	// bound is meaningful. Those serves are visible as EventSuspect entries
	// now that SkipPeer logs transitions.
	var degraded int
	for _, e := range res.Epochs {
		degraded += e.DegradedFetches
	}
	tol := 0.01
	if degraded > 0 {
		tol = 0.03
		t.Logf("%d degraded fetches under load (events %v); widening accuracy tolerance to %.2f",
			degraded, eventKinds(res.SuperviseEvents), tol)
	}
	if diff := math.Abs(res.TestAccuracy - clean.TestAccuracy); diff > tol {
		t.Fatalf("supervised accuracy %.4f vs unsupervised %.4f (|diff| %.4f > %.2f); degraded=%d events=%v",
			res.TestAccuracy, clean.TestAccuracy, diff, tol, degraded, res.SuperviseEvents)
	}
}

// TestResumeForcesExactSync is the regression test for the resume fix: a
// resumed run starts with fresh workers whose EC state is empty, so its
// first epoch must be a forced exact-sync round (visible as an exact-sized
// FP payload, not a 2-bit compressed one), and the stitched EC trajectory
// must match an uninterrupted EC run.
func TestResumeForcesExactSync(t *testing.T) {
	const epochs = 20
	ckpt := filepath.Join(t.TempDir(), "ec.ckpt")

	full, err := Train(ecCoraConfig(epochs))
	if err != nil {
		t.Fatal(err)
	}

	half := ecCoraConfig(epochs / 2)
	half.CheckpointPath = ckpt
	half.CheckpointEvery = epochs / 2
	if _, err := Train(half); err != nil {
		t.Fatal(err)
	}

	resumed := ecCoraConfig(epochs)
	resumed.ResumeFrom = ckpt
	res, err := Train(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != epochs/2 {
		t.Fatalf("resumed run trained %d epochs, want %d", len(res.Epochs), epochs/2)
	}

	// Epoch 10 resumes mid trend group (Ttr=10 puts scheduled boundaries at
	// t=9 and t=19): without the forced exact sync its FP payloads would be
	// 2-bit compressed and epoch bytes would match the in-group epoch 11.
	first, second := res.Epochs[0].Bytes, res.Epochs[1].Bytes
	if float64(first) < 1.05*float64(second) {
		t.Fatalf("first resumed epoch moved %d bytes vs %d in-group: no exact-sync signature", first, second)
	}

	// Compensation quality: the stitched run must track the uninterrupted
	// one, proving the reset EC state re-baselines rather than degrades.
	if diff := math.Abs(res.TestAccuracy - full.TestAccuracy); diff > 0.02 {
		t.Fatalf("resumed EC accuracy %.4f vs uninterrupted %.4f (|diff| %.4f)",
			res.TestAccuracy, full.TestAccuracy, diff)
	}
	lastR, lastF := res.Epochs[len(res.Epochs)-1], full.Epochs[len(full.Epochs)-1]
	if math.Abs(lastR.Loss-lastF.Loss) > 0.05*(1+lastF.Loss) {
		t.Fatalf("resumed final loss %v vs uninterrupted %v", lastR.Loss, lastF.Loss)
	}
}

// TestChaosSoak is the nightly chaos-soak: long supervised training under
// sustained drops, injected errors and repeated crash windows, with
// checkpoint-backed auto-rollback — plus, since the cluster went elastic,
// one scripted join and one permanent departure mid-run, so membership
// transitions soak under the same faults as everything else. Gated behind
// ECGRAPH_CHAOS_SOAK so the ordinary test run stays fast; CI runs it on a
// schedule with -race.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	if os.Getenv("ECGRAPH_CHAOS_SOAK") == "" {
		t.Skip("set ECGRAPH_CHAOS_SOAK=1 to run the chaos soak")
	}

	const epochs = 60
	clean, err := Train(ecCoraConfig(epochs))
	if err != nil {
		t.Fatal(err)
	}

	cfg := ecCoraConfig(epochs)
	sup := fastSupervision()
	sup.AutoRollback = true
	sup.MaxRecoveries = 64
	cfg.Supervise = sup
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "soak.ckpt")
	cfg.CheckpointEvery = 5
	// Membership churn rides along: a worker joins at epoch 20 (auto id 3,
	// the slot above the boot roster), and the permanent departure below
	// converts into a membership leave instead of an endless respawn loop.
	cfg.Elastic = &ElasticOptions{
		Plan:         []MembershipChange{{Epoch: 20, Join: true, Worker: -1}},
		LeaveOnDeath: true,
	}
	nodes := cfg.Workers + 1 + cfg.Servers
	inner := transport.NewInProc(nodes)
	// Sustained drops and error responses come from the seeded per-pair
	// chaos layer; the three whole-run outage windows sit above it on the
	// shared-sequence wrapper, since they are positioned on the run's single
	// call timeline (≈150 eligible calls per epoch).
	chaos := transport.NewChaos(inner, transport.ChaosConfig{
		Seed:      23,
		DropRate:  0.03,
		ErrorRate: 0.01,
		Methods:   trainingMethods(),
	})
	outage := newSeqOutage(chaos, []transport.CrashWindow{
		{Node: 1, From: 300, To: 900},
		{Node: 2, From: 4000, To: 4700},
		{Node: 0, From: 9000, To: 9800},
	}, trainingMethods())
	// Permanent departure of the epoch-20 joiner once the cluster has made
	// ~320 parameter-server pushes (roughly epoch 45): the node goes dark
	// for good and LeaveOnDeath retires it from the view it only just
	// entered.
	trigger := &departOnPush{Network: outage, chaos: chaos, node: 3, afterPushes: 320}
	cfg.Net = transport.NewReliable(trigger, nodes, transport.ReliableConfig{
		MaxAttempts: 3,
		BaseBackoff: 50 * time.Microsecond,
		MaxBackoff:  time.Millisecond,
		Seed:        23,
	})
	defer cfg.Net.Close()

	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != epochs {
		t.Fatalf("soak trained %d epochs, want %d", len(res.Epochs), epochs)
	}
	if diff := math.Abs(res.TestAccuracy - clean.TestAccuracy); diff > 0.03 {
		t.Fatalf("soak accuracy %.4f vs clean %.4f (|diff| %.4f > 0.03); %d recoveries",
			res.TestAccuracy, clean.TestAccuracy, diff, res.Recoveries)
	}
	// Membership invariants: the scripted join and the forced departure both
	// produced view transitions for worker 3, it is gone from the final
	// view, and every vertex still has exactly one live owner. (Transient
	// outage windows may also have been retired under LeaveOnDeath if a
	// window outlasted the probe budget, so the full roster is not pinned.)
	var joined3, left3 bool
	for _, ev := range res.MembershipEvents {
		for _, id := range ev.Joined {
			joined3 = joined3 || id == 3
		}
		for _, id := range ev.Left {
			left3 = left3 || id == 3
		}
	}
	if !joined3 || !left3 {
		t.Fatalf("membership transitions missed the scripted churn (join3=%v leave3=%v): %+v",
			joined3, left3, res.MembershipEvents)
	}
	if res.FinalView.Has(3) {
		t.Fatalf("final view %v still contains the departed worker 3", res.FinalView)
	}
	assertSingleOwner(t, res, cfg.Dataset.Graph.N)
	t.Logf("soak: %d recoveries, %d events, %d membership transitions, injected %+v, %d outage-crashed calls",
		res.Recoveries, len(res.SuperviseEvents), len(res.MembershipEvents),
		chaos.Injected(), outage.crashed.Load())
}
