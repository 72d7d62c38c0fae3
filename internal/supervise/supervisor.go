package supervise

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"ecgraph/internal/obs"
	"ecgraph/internal/transport"
)

// RPC methods served by the supervisor through the monitor node's wrapped
// handler. Heartbeats travel over the ordinary cluster fabric so a network
// fault that isolates a worker also silences its heartbeats — the detector
// observes exactly what training would observe.
const (
	// MethodBeat is a worker-originated heartbeat (worker id + sequence).
	MethodBeat = "sup.beat"
	// MethodPing is a supervisor-originated liveness probe; any node that
	// answers is reachable.
	MethodPing = "sup.ping"
)

// Options parameterises the supervision layer end to end: heartbeat
// cadence, detector thresholds, recovery budgets, straggler deadlines and
// the numeric guards. The zero value of every field selects a sensible
// default; core.Config.Supervise == nil disables supervision entirely.
type Options struct {
	// HeartbeatInterval is the gap between worker heartbeats (default 25ms).
	HeartbeatInterval time.Duration
	// SuspectAfter / DeadAfter are hard silence bounds for the detector
	// (defaults 5x and 15x the heartbeat interval).
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// PhiSuspect / PhiDead are the accrual thresholds (defaults 2 and 8).
	PhiSuspect float64
	PhiDead    float64

	// MaxRecoveries bounds recovery attempts across the whole run before
	// the engine gives up and surfaces the underlying error (default 16).
	MaxRecoveries int
	// RecoveryBackoff is the pause between consecutive recovery attempts,
	// giving the detector time to accrue suspicion and transient storms
	// time to pass (default = HeartbeatInterval).
	RecoveryBackoff time.Duration
	// ProbeInterval is the gap between liveness probes while waiting for a
	// dead worker to become reachable again (default = HeartbeatInterval/2).
	ProbeInterval time.Duration
	// ProbeBudget caps how long one recovery attempt waits for a dead
	// worker to answer a probe before falling through to rollback or the
	// next attempt (default 40x ProbeInterval).
	ProbeBudget time.Duration

	// AutoRollback lets the engine roll back to the latest checkpoint (or
	// the run's initial state) and replay when recovery cannot proceed or
	// a numeric guard trips, instead of returning an error.
	AutoRollback bool
	// LossSpikeSigma trips the numeric guard when an epoch's loss exceeds
	// the running mean by this many running standard deviations (default
	// 8; negative disables the spike guard — NaN/Inf detection stays on).
	LossSpikeSigma float64

	// StragglerMult scales the per-peer EWMA response time into a ghost
	// exchange deadline: calls slower than Mult x EWMA are abandoned and
	// served from the degraded cache (default 8; negative disables).
	StragglerMult float64
	// MinDeadline / MaxDeadline clamp the adaptive deadline (defaults
	// 2ms / 2s).
	MinDeadline time.Duration
	MaxDeadline time.Duration
}

// WithDefaults fills unset fields.
func (o Options) WithDefaults() Options {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 25 * time.Millisecond
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 5 * o.HeartbeatInterval
	}
	if o.DeadAfter <= 0 {
		o.DeadAfter = 15 * o.HeartbeatInterval
	}
	if o.MaxRecoveries <= 0 {
		o.MaxRecoveries = 16
	}
	if o.RecoveryBackoff <= 0 {
		o.RecoveryBackoff = o.HeartbeatInterval
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = o.HeartbeatInterval / 2
	}
	if o.ProbeBudget <= 0 {
		o.ProbeBudget = 40 * o.ProbeInterval
	}
	if o.LossSpikeSigma == 0 {
		o.LossSpikeSigma = 8
	}
	if o.StragglerMult == 0 {
		o.StragglerMult = 8
	}
	if o.MinDeadline <= 0 {
		o.MinDeadline = 2 * time.Millisecond
	}
	if o.MaxDeadline <= 0 {
		o.MaxDeadline = 2 * time.Second
	}
	return o
}

// EventKind labels one entry of the supervision log.
type EventKind int

const (
	// EventSuspect: the detector downgraded a worker to suspect.
	EventSuspect EventKind = iota
	// EventDead: the detector declared a worker dead.
	EventDead
	// EventRespawn: a fresh worker replaced a dead one.
	EventRespawn
	// EventRehydrate: the respawned worker refetched its ghost store and
	// will pull parameters from the servers on its next epoch.
	EventRehydrate
	// EventExactSync: compensation state was reset cluster-wide and the
	// next forward round forced exact, re-baselining every EC pair.
	EventExactSync
	// EventRetry: the engine is re-running the failed epoch.
	EventRetry
	// EventRollback: the engine restored the latest checkpoint and is
	// replaying from its epoch.
	EventRollback
	// EventGuardTrip: a numeric guard (NaN/Inf or loss spike) fired.
	EventGuardTrip
	// EventRecovered: an epoch completed after one or more recoveries.
	EventRecovered
	// EventJoin: a worker announced it is joining the cluster.
	EventJoin
	// EventLeave: a worker announced a planned drain, or was forced out
	// after phi-detected permanent death.
	EventLeave
	// EventViewChange: the cluster transitioned to a new membership view
	// at an epoch boundary.
	EventViewChange
	// EventHandoff: vertex state (embeddings, EC residuals, caches) was
	// shipped from an old owner to a new one during a view transition.
	EventHandoff
	// EventPSPromote: a parameter-server range's hot-standby backup was
	// promoted to primary after the primary died.
	EventPSPromote
	// EventPSResync: a backup received a full-snapshot re-sync (fresh spawn
	// after a promotion, or recovery from a failed log-ship).
	EventPSResync
	// EventMonitorElect: monitor duty moved to another parameter-server
	// node after the monitor died.
	EventMonitorElect
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventSuspect:
		return "suspect"
	case EventDead:
		return "dead"
	case EventRespawn:
		return "respawn"
	case EventRehydrate:
		return "rehydrate"
	case EventExactSync:
		return "exact-sync"
	case EventRetry:
		return "retry"
	case EventRollback:
		return "rollback"
	case EventGuardTrip:
		return "guard-trip"
	case EventRecovered:
		return "recovered"
	case EventJoin:
		return "join"
	case EventLeave:
		return "leave"
	case EventViewChange:
		return "view-change"
	case EventHandoff:
		return "handoff"
	case EventPSPromote:
		return "ps-promote"
	case EventPSResync:
		return "ps-resync"
	case EventMonitorElect:
		return "monitor-elect"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one supervision decision, kept for the run log so every
// recovery is auditable after the fact.
type Event struct {
	Kind   EventKind
	Worker int // -1 when not specific to one worker
	Epoch  int
	Detail string
	Wall   time.Time
}

// String renders the event for run logs.
func (e Event) String() string {
	who := "cluster"
	if e.Worker >= 0 {
		who = fmt.Sprintf("worker %d", e.Worker)
	}
	if e.Detail == "" {
		return fmt.Sprintf("epoch %d: %s %s", e.Epoch, who, e.Kind)
	}
	return fmt.Sprintf("epoch %d: %s %s (%s)", e.Epoch, who, e.Kind, e.Detail)
}

// latencySource is the view of per-destination response times the
// straggler deadline derives from; transport.Reliable implements it.
type latencySource interface {
	AvgLatency(dst int) time.Duration
}

// Supervisor owns the failure detector, the heartbeat emitters and the
// supervision event log. The engine consults it between epoch attempts;
// workers consult it (through the worker.PeerHealth interface it
// satisfies) inside the ghost exchange.
type Supervisor struct {
	opts Options
	net  transport.Network
	lat  latencySource // nil when the transport keeps no latency stats
	det  *Detector

	mu       sync.Mutex
	monitor  int   // current monitor node; moves on re-election (SetMonitor)
	workers  []int // current roster, ascending; updated by SetWorkers
	watched  []int // non-worker nodes under supervision (the PS tier)
	events   []Event
	reported map[int]Status // last status change already logged per worker

	// One emitter goroutine per roster member, each with its own stop
	// channel so membership changes can start and stop them individually.
	running  bool
	emitters map[int]chan struct{}
	emitWG   sync.WaitGroup
	beats    map[int]*countingBeat

	// Telemetry counters, set by RegisterMetrics; nil handles no-op.
	eventsTotal *obs.CounterVec
	transitions *obs.CounterVec
}

type countingBeat struct{ sent, failed int64 }

// New builds a supervisor for the given worker nodes, monitored from
// monitorNode (conventionally the first parameter server, whose handler
// the engine wraps with WrapHandler so heartbeats have somewhere to land).
func New(opts Options, net transport.Network, workerNodes []int, monitorNode int) *Supervisor {
	opts = opts.WithDefaults()
	s := &Supervisor{
		opts:    opts,
		net:     net,
		workers: append([]int(nil), workerNodes...),
		monitor: monitorNode,
		det: NewDetector(DetectorConfig{
			HeartbeatInterval: opts.HeartbeatInterval,
			SuspectAfter:      opts.SuspectAfter,
			DeadAfter:         opts.DeadAfter,
			PhiSuspect:        opts.PhiSuspect,
			PhiDead:           opts.PhiDead,
		}),
		reported: make(map[int]Status),
		emitters: make(map[int]chan struct{}),
		beats:    make(map[int]*countingBeat),
	}
	if l, ok := net.(latencySource); ok {
		s.lat = l
	}
	for _, w := range workerNodes {
		s.det.Register(w)
	}
	return s
}

// Options returns the effective (defaulted) options.
func (s *Supervisor) Options() Options { return s.opts }

// WrapHandler layers the supervision RPCs over a node's existing handler:
// sup.beat and sup.ping are served here, everything else passes through.
func (s *Supervisor) WrapHandler(inner transport.Handler) transport.Handler {
	return func(method string, req []byte) ([]byte, error) {
		switch method {
		case MethodBeat:
			r := transport.NewReader(req)
			worker := int(r.Int32())
			s.det.Beat(worker)
			return nil, nil
		case MethodPing:
			return nil, nil
		default:
			return inner(method, req)
		}
	}
}

// Start launches one heartbeat emitter goroutine per worker node. Each
// emitter sends sup.beat from its worker's node id, so the beat crosses
// every transport wrapper (chaos, retries, TCP) as worker traffic and a
// partitioned worker goes silent exactly like its ghost exchanges do.
func (s *Supervisor) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return
	}
	s.running = true
	for _, node := range s.workers {
		s.startEmitterLocked(node)
	}
	for _, node := range s.watched {
		s.startEmitterLocked(node)
	}
}

// startEmitterLocked spawns the heartbeat emitter for one node; the caller
// holds s.mu and has checked s.running.
func (s *Supervisor) startEmitterLocked(node int) {
	if _, ok := s.emitters[node]; ok {
		return
	}
	stop := make(chan struct{})
	s.emitters[node] = stop
	s.emitWG.Add(1)
	go func() {
		defer s.emitWG.Done()
		ticker := time.NewTicker(s.opts.HeartbeatInterval)
		defer ticker.Stop()
		var seq uint32
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			seq++
			w := transport.NewWriter(8)
			w.Int32(int32(node))
			w.Uint32(seq)
			// The monitor is re-read every beat so emitters re-target after a
			// monitor re-election without being restarted.
			if _, err := s.net.Call(node, s.Monitor(), MethodBeat, w.Bytes()); err != nil {
				s.addBeat(node, false)
			} else {
				s.addBeat(node, true)
			}
		}
	}()
}

func (s *Supervisor) addBeat(node int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.beats[node]
	if b == nil {
		b = &countingBeat{}
		s.beats[node] = b
	}
	if ok {
		b.sent++
	} else {
		b.failed++
	}
}

// Stop terminates the heartbeat emitters and waits for them to exit.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		return
	}
	s.running = false
	for node, stop := range s.emitters {
		close(stop)
		delete(s.emitters, node)
	}
	s.mu.Unlock()
	s.emitWG.Wait()
}

// Monitor returns the node currently hosting the supervision and
// membership control plane.
func (s *Supervisor) Monitor() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.monitor
}

// SetMonitor moves monitor duty to another node — the re-election step
// after the monitor dies. Running heartbeat emitters re-target at their
// next beat; probes originate from the new monitor from now on. The caller
// must have wrapped the new node's handler with WrapHandler (the engine
// wraps every parameter-server node up front, so any of them can take
// over without a handler swap).
func (s *Supervisor) SetMonitor(node int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.monitor = node
}

// WatchNodes places additional non-worker nodes (the parameter-server
// tier) under supervision: each gets a detector registration and a
// heartbeat emitter, like a worker, but stays out of the worker roster so
// membership transitions (SetWorkers) never touch it. The monitor node
// itself beats over a local call that no fault layer touches — its death is
// established by probing from other nodes, not by phi.
func (s *Supervisor) WatchNodes(nodes []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	have := make(map[int]bool, len(s.watched))
	for _, n := range s.watched {
		have[n] = true
	}
	for _, n := range nodes {
		if have[n] {
			continue
		}
		s.watched = append(s.watched, n)
		s.det.Register(n)
		if s.running {
			s.startEmitterLocked(n)
		}
	}
	sort.Ints(s.watched)
}

// Unwatch removes a node from the watched set (a departed PS node whose id
// will be reused by a respawned backup), stopping its emitter.
func (s *Supervisor) Unwatch(node int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, n := range s.watched {
		if n == node {
			s.watched = append(s.watched[:i], s.watched[i+1:]...)
			break
		}
	}
	if stop, ok := s.emitters[node]; ok {
		close(stop)
		delete(s.emitters, node)
	}
	delete(s.reported, node)
}

// Workers returns the current roster (ascending node ids).
func (s *Supervisor) Workers() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.workers...)
}

// SetWorkers transitions the supervisor to a new roster at a membership
// view change: joined nodes are registered with the failure detector and
// get heartbeat emitters (when the supervisor is running); departed nodes'
// emitters stop and their logged-status memory clears, so a node id reused
// by a later join starts with a clean healthy record. The detector keeps
// the departed node's history — it is simply never consulted again unless
// the node rejoins, at which point Register resets it.
func (s *Supervisor) SetWorkers(nodes []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		next[n] = true
	}
	current := make(map[int]bool, len(s.workers))
	for _, n := range s.workers {
		current[n] = true
	}
	for _, n := range nodes {
		if !current[n] {
			s.det.Register(n)
			delete(s.reported, n)
			if s.running {
				s.startEmitterLocked(n)
			}
		}
	}
	for _, n := range s.workers {
		if !next[n] {
			if stop, ok := s.emitters[n]; ok {
				close(stop)
				delete(s.emitters, n)
			}
			delete(s.reported, n)
		}
	}
	s.workers = append(s.workers[:0], nodes...)
	sort.Ints(s.workers)
}

// Status returns the detector's verdict for a worker, logging
// healthy→suspect→dead transitions the first time they are observed.
func (s *Supervisor) Status(worker int) Status {
	st := s.det.Status(worker)
	s.mu.Lock()
	prev, seen := s.reported[worker]
	if (!seen && st != StatusHealthy) || (seen && st != prev) {
		s.reported[worker] = st
		s.mu.Unlock()
		s.transitions.With(strconv.Itoa(worker), st.String()).Inc()
		switch st {
		case StatusSuspect:
			s.Record(EventSuspect, worker, -1, fmt.Sprintf("phi %.1f", s.det.Phi(worker)))
		case StatusDead:
			s.Record(EventDead, worker, -1, fmt.Sprintf("phi %.1f", s.det.Phi(worker)))
		}
		return st
	}
	s.mu.Unlock()
	return st
}

// Probe sends one liveness ping from the monitor node; a response means
// the node is reachable again and counts as a heartbeat.
func (s *Supervisor) Probe(node int) bool {
	return s.ProbeFrom(s.Monitor(), node)
}

// ProbeFrom sends one liveness ping from an arbitrary source node — how
// the failover path checks whether the *monitor itself* is reachable, a
// question the monitor cannot answer about itself (its self-probe is a
// local call no fault layer touches).
func (s *Supervisor) ProbeFrom(src, node int) bool {
	if _, err := s.net.Call(src, node, MethodPing, nil); err != nil {
		return false
	}
	s.det.Beat(node)
	return true
}

// AwaitReachable probes a dead node until it answers or the budget runs
// out. Probes are real transport calls, so a crash window expressed over
// the chaos call sequence is drained by the probing itself — modelling an
// operator or orchestrator restarting the node while the cluster knocks.
func (s *Supervisor) AwaitReachable(node int, budget time.Duration) bool {
	deadline := time.Now().Add(budget)
	for {
		if s.Probe(node) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(s.opts.ProbeInterval)
	}
}

// Record appends an event to the supervision log.
func (s *Supervisor) Record(kind EventKind, worker, epoch int, detail string) {
	s.eventsTotal.With(kind.String()).Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, Event{Kind: kind, Worker: worker, Epoch: epoch, Detail: detail, Wall: time.Now()})
}

// Events returns a snapshot of the supervision log.
func (s *Supervisor) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// ---- worker.PeerHealth implementation ----

// SkipPeer reports whether ghost exchanges with the peer should be served
// from the degraded cache without even attempting the call: true for
// suspect and dead peers, so healthy workers stop queueing behind a
// stalled one (the exchange still happens once the staleness bound would
// be exceeded — the worker only skips while a degraded serve is legal).
func (s *Supervisor) SkipPeer(peer int) bool {
	// Through the logging Status, not the raw detector: a transient suspect
	// that silently degrades ghost fetches and leaves no trace in the event
	// log is undiagnosable from the outside.
	return s.Status(peer) != StatusHealthy
}

// PeerDeadline returns the straggler deadline for calls to the peer:
// StragglerMult x the transport's EWMA response time, clamped to
// [MinDeadline, MaxDeadline]. Zero (no deadline override) when the
// transport keeps no latency stats or the multiplier is disabled.
func (s *Supervisor) PeerDeadline(peer int) time.Duration {
	if s.lat == nil || s.opts.StragglerMult <= 0 {
		return 0
	}
	avg := s.lat.AvgLatency(peer)
	if avg <= 0 {
		return 0
	}
	d := time.Duration(float64(avg) * s.opts.StragglerMult)
	if d < s.opts.MinDeadline {
		d = s.opts.MinDeadline
	}
	if d > s.opts.MaxDeadline {
		d = s.opts.MaxDeadline
	}
	return d
}
