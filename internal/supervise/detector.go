// Package supervise is EC-Graph's self-healing layer: workers emit
// heartbeats over the same transport the training traffic uses, a
// phi-accrual-style failure detector classifies each worker as healthy,
// suspect or dead, and a Supervisor drives the engine's recovery — dead
// workers are respawned and rehydrated (parameters from the parameter
// servers, ghost stores refetched from peers, error-compensation state
// deliberately reset followed by a forced exact-sync round), stragglers
// are tolerated by serving degraded ghost rows under per-peer deadlines
// derived from an EWMA of response times, and numeric corruption rolls
// the run back to the latest checkpoint instead of erroring out.
//
// The package sits below internal/worker and internal/core: it only knows
// about transport.Network, so the same supervision stack runs over the
// in-process harness, the chaos-injected test fabric and real TCP.
package supervise

import (
	"math"
	"sync"
	"time"
)

// Status is the failure detector's verdict on one worker.
type Status int

const (
	// StatusHealthy means heartbeats are arriving on schedule.
	StatusHealthy Status = iota
	// StatusSuspect means heartbeats are overdue: peers should stop
	// blocking on this worker and serve degraded ghost rows instead, but
	// the worker is not yet written off.
	StatusSuspect
	// StatusDead means the worker has missed heartbeats long enough that
	// the supervisor must respawn and rehydrate it.
	StatusDead
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusHealthy:
		return "healthy"
	case StatusSuspect:
		return "suspect"
	case StatusDead:
		return "dead"
	default:
		return "unknown"
	}
}

// DetectorConfig tunes the failure detector. The zero value derives
// everything from the heartbeat interval.
type DetectorConfig struct {
	// HeartbeatInterval is the expected gap between heartbeats; it seeds
	// the inter-arrival estimate before enough samples exist.
	HeartbeatInterval time.Duration
	// SuspectAfter and DeadAfter are hard elapsed-time bounds: a worker
	// whose last heartbeat is older than SuspectAfter is at least suspect,
	// older than DeadAfter is dead, regardless of phi. Zero derives them
	// from the heartbeat interval (5x and 15x).
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// PhiSuspect and PhiDead are the accrual thresholds: phi is the
	// negated decimal log of the probability that a heartbeat this overdue
	// is still in flight, under a normal model of the observed
	// inter-arrival times. Defaults 2 (99% confidence) and 8.
	PhiSuspect float64
	PhiDead    float64
	// WindowSize bounds the inter-arrival sample window (default 64).
	WindowSize int
	// Now overrides the clock for tests.
	Now func() time.Time
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 25 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 5 * c.HeartbeatInterval
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 15 * c.HeartbeatInterval
	}
	if c.PhiSuspect <= 0 {
		c.PhiSuspect = 2
	}
	if c.PhiDead <= 0 {
		c.PhiDead = 8
	}
	if c.WindowSize <= 0 {
		c.WindowSize = 64
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// peerState accumulates one worker's heartbeat history.
type peerState struct {
	last      time.Time
	intervals []float64 // seconds, ring buffer
	next      int
	filled    bool
}

// Detector is a phi-accrual-style failure detector over worker heartbeats
// (Hayashibara et al.: suspicion is a continuous accrual value, not a
// binary timeout). Safe for concurrent use: heartbeats arrive on transport
// handler goroutines while the engine polls statuses.
type Detector struct {
	cfg DetectorConfig

	mu    sync.Mutex
	peers map[int]*peerState
}

// NewDetector builds a detector; Register each monitored worker before
// training starts so silence is measured from a known epoch.
func NewDetector(cfg DetectorConfig) *Detector {
	return &Detector{cfg: cfg.withDefaults(), peers: make(map[int]*peerState)}
}

// Register starts monitoring a worker, treating now as its first
// heartbeat so a worker that dies before ever beating is still detected.
func (d *Detector) Register(worker int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.peers[worker] = &peerState{
		last:      d.cfg.Now(),
		intervals: make([]float64, d.cfg.WindowSize),
	}
}

// Beat records a heartbeat arrival from the worker.
func (d *Detector) Beat(worker int) {
	now := d.cfg.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.peers[worker]
	if !ok {
		p = &peerState{last: now, intervals: make([]float64, d.cfg.WindowSize)}
		d.peers[worker] = p
		return
	}
	iv := now.Sub(p.last).Seconds()
	p.last = now
	p.intervals[p.next] = iv
	p.next++
	if p.next == len(p.intervals) {
		p.next = 0
		p.filled = true
	}
}

// meanStd returns the mean and standard deviation of the sample window,
// seeding with the configured interval while samples are scarce.
func (d *Detector) meanStd(p *peerState) (mean, std float64) {
	n := p.next
	if p.filled {
		n = len(p.intervals)
	}
	base := d.cfg.HeartbeatInterval.Seconds()
	if n < 4 {
		return base, base / 4
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += p.intervals[i]
	}
	mean = sum / float64(n)
	var sq float64
	for i := 0; i < n; i++ {
		dev := p.intervals[i] - mean
		sq += dev * dev
	}
	std = math.Sqrt(sq / float64(n))
	// Floor the deviation so a perfectly regular in-process clock does not
	// make phi explode on the first scheduling hiccup.
	if floor := mean / 10; std < floor {
		std = floor
	}
	if floor := base / 20; std < floor {
		std = floor
	}
	return mean, std
}

// Phi returns the current suspicion level for the worker:
// phi = -log10 P(a heartbeat gap > elapsed), with the gap modelled as
// normal over the observed inter-arrival window. Unknown workers are
// maximally suspicious.
func (d *Detector) Phi(worker int) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.peers[worker]
	if !ok {
		return math.Inf(1)
	}
	return d.phiLocked(p)
}

func (d *Detector) phiLocked(p *peerState) float64 {
	elapsed := d.cfg.Now().Sub(p.last).Seconds()
	mean, std := d.meanStd(p)
	// P(X > elapsed) for X ~ N(mean, std): 0.5 * erfc((elapsed-mean)/(std*sqrt2)).
	pLater := 0.5 * math.Erfc((elapsed-mean)/(std*math.Sqrt2))
	if pLater <= 0 {
		return math.Inf(1)
	}
	return -math.Log10(pLater)
}

// Status classifies the worker from its phi value and the hard
// elapsed-time bounds (healthy → suspect → dead).
func (d *Detector) Status(worker int) Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.peers[worker]
	if !ok {
		return StatusDead
	}
	elapsed := d.cfg.Now().Sub(p.last)
	phi := d.phiLocked(p)
	switch {
	// Dead by accrual only after the hard suspect bound has also passed:
	// respawning a worker is expensive, and a metronomic beat history makes
	// phi explode on the first scheduling hiccup — one late beat must never
	// trigger a respawn on its own.
	case elapsed >= d.cfg.DeadAfter || (phi >= d.cfg.PhiDead && elapsed >= d.cfg.SuspectAfter):
		return StatusDead
	case elapsed >= d.cfg.SuspectAfter || phi >= d.cfg.PhiSuspect:
		return StatusSuspect
	default:
		return StatusHealthy
	}
}
