package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected marks a failure manufactured by the Chaos wrapper, so tests
// and retry policies can tell injected faults from genuine ones with
// errors.Is.
var ErrInjected = errors.New("transport: injected fault")

// CrashWindow takes one node offline for the half-open interval [From, To)
// of each (src,dst) pair's own call sequence: every remote call touching
// Node fails while that pair's counter is inside the window, modelling a
// crash or a network partition that heals. Failed attempts advance the
// pair's sequence too, so retries eventually outlive the window. Windows
// are per-pair (not a global call count) so the schedule each edge sees is
// independent of how goroutines interleave across edges.
type CrashWindow struct {
	Node     int
	From, To int64
}

// Departure takes a node permanently offline once each (src,dst) pair's
// call sequence reaches After: every later call touching Node fails, and —
// unlike a CrashWindow — the fault never heals, modelling a machine that is
// decommissioned or lost for good. Per-pair sequencing keeps the schedule
// deterministic under concurrency, the same guarantee crash windows give;
// pairs reach After independently, so the node "goes dark" edge by edge the
// way a real departure propagates through a cluster.
type Departure struct {
	Node  int
	After int64
}

// ChaosConfig parameterises fault injection. All rates are probabilities in
// [0, 1]; decisions are drawn from a hash of (Seed, src, dst, per-pair call
// sequence), so a fixed seed reproduces the exact same per-pair fault
// pattern regardless of goroutine interleaving.
type ChaosConfig struct {
	Seed int64
	// DropRate is the probability a request is lost in transit: the
	// destination handler never runs and the caller sees an error.
	DropRate float64
	// ErrorRate is the probability the call returns an injected error
	// response instead of reaching the handler.
	ErrorRate float64
	// LatencyRate is the probability a call is delayed by Latency before
	// delivery (a latency spike on the link).
	LatencyRate float64
	Latency     time.Duration
	// CorruptRate is the probability a call's payload is flipped in transit
	// and caught by the frame checksum: the call fails with an error wrapping
	// both ErrCorrupt and ErrInjected before reaching the handler, exactly
	// what the TCP layer's CRC32-C produces for a genuinely damaged frame.
	// (Chaos sits above the framing layer, so the detection is simulated here
	// rather than by flipping real wire bytes — flipped bytes below this
	// wrapper would be checksummed as written and sail through.)
	CorruptRate float64
	// Crash lists per-node outage windows over each pair's call sequence.
	Crash []CrashWindow
	// Departures lists nodes that leave permanently once each pair's call
	// sequence passes After; see Departure.
	Departures []Departure
	// Methods, when non-empty, restricts injection to calls whose method
	// name is listed — e.g. only ghost exchanges, leaving the parameter
	// server path clean. Empty means every remote call is eligible.
	Methods []string
}

// ChaosStats counts the faults the wrapper has injected since creation.
type ChaosStats struct {
	Drops, Errors, Spikes, CrashedCalls, DepartedCalls, Corrupts int64
}

// FaultEvent records one injected fault for determinism auditing.
type FaultEvent struct {
	Src, Dst int
	Seq      int64 // the (src,dst) pair's call sequence number
	Kind     string
	Method   string
}

// maxFaultLog bounds the fault event log so long soaks don't grow without
// limit; determinism checks only need a prefix per edge anyway.
const maxFaultLog = 1 << 16

// Chaos wraps a Network and injects deterministic, seeded faults: dropped
// requests, error responses, latency spikes and per-node crash windows.
// Local calls (src == dst) model shared memory and are never faulted.
// All injection happens before the inner call, so a failed attempt never
// reaches the destination handler and handler-side state machines (the EC
// responders, the PS barrier) only advance on delivered messages.
//
// Every fault decision is a pure function of (Seed, src, dst, pair
// sequence), and each pair's sequence advances only with that pair's own
// eligible calls, so concurrent callers on different edges cannot perturb
// each other's fault schedules.
type Chaos struct {
	inner Network
	cfg   ChaosConfig

	mu      sync.Mutex
	pairSeq map[[2]int]*atomic.Int64

	logMu sync.Mutex
	log   []FaultEvent

	// departed holds nodes taken offline at runtime via Depart, on top of
	// the deterministic cfg.Departures schedule.
	depMu    sync.Mutex
	departed map[int]bool

	drops, errs, spikes, crashed, departs, corrupts atomic.Int64
}

// NewChaos wraps inner with the given fault configuration.
func NewChaos(inner Network, cfg ChaosConfig) *Chaos {
	return &Chaos{inner: inner, cfg: cfg, pairSeq: make(map[[2]int]*atomic.Int64), departed: make(map[int]bool)}
}

// Injected returns a snapshot of the injected-fault counters.
func (c *Chaos) Injected() ChaosStats {
	return ChaosStats{
		Drops:         c.drops.Load(),
		Errors:        c.errs.Load(),
		Spikes:        c.spikes.Load(),
		CrashedCalls:  c.crashed.Load(),
		DepartedCalls: c.departs.Load(),
		Corrupts:      c.corrupts.Load(),
	}
}

// Depart takes a node permanently offline from this moment on — the
// scripted-at-runtime counterpart of ChaosConfig.Departures, for tests that
// trigger a departure at a known training phase rather than a call count.
// Calls faulted this way still land in the fault log with kind "depart", but
// their onset is wall-clock-relative, so only the config form is replayable
// byte-for-byte across runs.
func (c *Chaos) Depart(node int) {
	c.depMu.Lock()
	c.departed[node] = true
	c.depMu.Unlock()
}

// isDeparted reports whether node was taken offline via Depart.
func (c *Chaos) isDeparted(node int) bool {
	c.depMu.Lock()
	defer c.depMu.Unlock()
	return c.departed[node]
}

func (c *Chaos) record(src, dst int, seq int64, kind, method string) {
	c.logMu.Lock()
	if len(c.log) < maxFaultLog {
		c.log = append(c.log, FaultEvent{Src: src, Dst: dst, Seq: seq, Kind: kind, Method: method})
	}
	c.logMu.Unlock()
}

// Register implements Network.
func (c *Chaos) Register(node int, h Handler) { c.inner.Register(node, h) }

// NodeStats implements Network.
func (c *Chaos) NodeStats(node int) Stats { return c.inner.NodeStats(node) }

// ResetStats implements Network. Injected-fault counters are cumulative
// run diagnostics and are deliberately not reset at epoch boundaries.
func (c *Chaos) ResetStats() { c.inner.ResetStats() }

// Close implements Network.
func (c *Chaos) Close() error { return c.inner.Close() }

func (c *Chaos) nextPairSeq(src, dst int) int64 {
	key := [2]int{src, dst}
	c.mu.Lock()
	ctr, ok := c.pairSeq[key]
	if !ok {
		ctr = new(atomic.Int64)
		c.pairSeq[key] = ctr
	}
	c.mu.Unlock()
	return ctr.Add(1)
}

func (c *Chaos) eligible(method string) bool {
	if len(c.cfg.Methods) == 0 {
		return true
	}
	for _, m := range c.cfg.Methods {
		if m == method {
			return true
		}
	}
	return false
}

// departedNode returns the departed endpoint of the pair, if any: a node
// taken offline via Depart, or one whose cfg.Departures onset the pair's
// sequence has reached by position n.
func (c *Chaos) departedNode(src, dst int, n int64) (int, bool) {
	for _, d := range c.cfg.Departures {
		if (d.Node == src || d.Node == dst) && n >= d.After {
			return d.Node, true
		}
	}
	if c.isDeparted(src) {
		return src, true
	}
	if c.isDeparted(dst) {
		return dst, true
	}
	return 0, false
}

// peekPairSeq reads a pair's sequence without advancing it.
func (c *Chaos) peekPairSeq(src, dst int) int64 {
	c.mu.Lock()
	ctr := c.pairSeq[[2]int{src, dst}]
	c.mu.Unlock()
	if ctr == nil {
		return 0
	}
	return ctr.Load()
}

// Call implements Network.
func (c *Chaos) Call(src, dst int, method string, req []byte) ([]byte, error) {
	if src == dst {
		return c.inner.Call(src, dst, method, req)
	}
	if !c.eligible(method) {
		// Departures outlive the Methods filter: a gone machine fails every
		// remote call, liveness probes included — otherwise the supervision
		// layer would see a node that answers pings but serves nothing.
		// These failures are not logged: the pair sequence only advances with
		// eligible calls, so logging them would interleave nondeterministic
		// positions into the fault log.
		if node, gone := c.departedNode(src, dst, c.peekPairSeq(src, dst)); gone {
			c.departs.Add(1)
			return nil, fmt.Errorf("chaos: node %d departed: %w", node, ErrInjected)
		}
		return c.inner.Call(src, dst, method, req)
	}
	n := c.nextPairSeq(src, dst)
	// Departures outrank every other fault: a gone node is gone. The check
	// runs after the pair sequence advances so the fault log entry carries a
	// deterministic per-pair position, distinguishable from crash-window
	// entries by its "depart" kind and by never healing.
	if node, gone := c.departedNode(src, dst, n); gone {
		c.departs.Add(1)
		c.record(src, dst, n, "depart", method)
		return nil, fmt.Errorf("chaos: node %d departed (pair call %d): %w", node, n, ErrInjected)
	}
	for _, w := range c.cfg.Crash {
		if (w.Node == src || w.Node == dst) && n >= w.From && n < w.To {
			c.crashed.Add(1)
			c.record(src, dst, n, "crash", method)
			return nil, fmt.Errorf("chaos: node %d down (pair call %d in window [%d,%d)): %w",
				w.Node, n, w.From, w.To, ErrInjected)
		}
	}
	h := chaosMix(uint64(c.cfg.Seed), uint64(src)<<32^uint64(uint32(dst)), uint64(n))
	// Each fault kind takes its own uniform draw from the pair's stream; the
	// draws are sequential, so adding a kind at the end leaves the schedules
	// of the earlier kinds untouched for a fixed seed.
	var u [4]float64
	for i := range u {
		h = splitmix64(h)
		u[i] = float64(h>>11) / (1 << 53)
	}
	if u[0] < c.cfg.DropRate {
		c.drops.Add(1)
		c.record(src, dst, n, "drop", method)
		return nil, fmt.Errorf("chaos: dropped %s %d→%d: %w", method, src, dst, ErrInjected)
	}
	if u[1] < c.cfg.ErrorRate {
		c.errs.Add(1)
		c.record(src, dst, n, "error", method)
		return nil, fmt.Errorf("chaos: error response for %s %d→%d: %w", method, src, dst, ErrInjected)
	}
	if u[3] < c.cfg.CorruptRate {
		c.corrupts.Add(1)
		c.record(src, dst, n, "corrupt", method)
		return nil, fmt.Errorf("chaos: bit flip in %s %d→%d: %w: %w", method, src, dst, ErrCorrupt, ErrInjected)
	}
	if u[2] < c.cfg.LatencyRate && c.cfg.Latency > 0 {
		c.spikes.Add(1)
		c.record(src, dst, n, "spike", method)
		time.Sleep(c.cfg.Latency)
	}
	return c.inner.Call(src, dst, method, req)
}

// CallMulti implements Network: each call takes its own fault draw from its
// destination pair's stream.
func (c *Chaos) CallMulti(src int, calls []Call) []Result {
	return SequentialMulti(c, src, calls)
}

// splitmix64 is the SplitMix64 finaliser, a cheap high-quality bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// chaosMix folds the seed, pair identity and per-pair sequence into one
// well-mixed word.
func chaosMix(seed, pair, seq uint64) uint64 {
	return splitmix64(splitmix64(seed^pair) ^ seq)
}
