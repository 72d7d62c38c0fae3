package transport

import (
	"fmt"
	"strconv"
	"time"

	"ecgraph/internal/obs"
)

// StackOption configures NewStack.
type StackOption func(*stackSpec)

type stackSpec struct {
	chaos       *ChaosConfig
	reliable    *ReliableConfig
	nodes       int
	concurrency int
	metrics     *obs.Registry
}

// WithChaos layers seeded fault injection directly above the base
// transport, below the retry layer — so retries see fresh fault draws,
// exactly how a flaky real network behaves.
func WithChaos(cfg ChaosConfig) StackOption {
	return func(s *stackSpec) { s.chaos = &cfg }
}

// WithReliable layers retry/timeout/backoff above the (possibly chaotic)
// base.
func WithReliable(cfg ReliableConfig) StackOption {
	return func(s *stackSpec) { s.reliable = &cfg }
}

// WithConcurrency layers bounded CallMulti fan-out at the top of the
// stack: n > 1 runs batches on up to n goroutines, n <= 1 keeps batches
// sequential.
func WithConcurrency(n int) StackOption {
	return func(s *stackSpec) { s.concurrency = n }
}

// WithNodes overrides the node count used to size the Reliable wrapper's
// per-node counters, for bases that don't expose NumNodes.
func WithNodes(n int) StackOption {
	return func(s *stackSpec) { s.nodes = n }
}

// WithMetrics layers per-peer-pair call metering (Metered) between the
// fan-out and retry layers and registers scrape hooks that export the
// stack's per-node traffic window and the chaos layer's injected-fault
// totals on reg. A nil registry is a no-op, so callers can pass their
// possibly-unset registry through unconditionally.
func WithMetrics(reg *obs.Registry) StackOption {
	return func(s *stackSpec) { s.metrics = reg }
}

// StackStats merges every layer's counters into one snapshot.
type StackStats struct {
	Nodes    []Stats    // per-node traffic + retry counters (from the top of the stack)
	Injected ChaosStats // injected-fault counters; zero without WithChaos
}

// nodeCounter is implemented by networks that know their cluster size
// (InProc, TCPCluster, Reliable).
type nodeCounter interface {
	NumNodes() int
}

// Stack is the composed transport returned by NewStack. It is itself a
// Network (and a DeadlineCaller), delegating to the top of the wrapper
// chain, and exposes the individual layers plus a merged Stats view.
type Stack struct {
	top      Network
	base     Network
	chaos    *Chaos
	reliable *Reliable
	metered  *Metered
	nodes    int
}

// NewStack composes the transport wrappers over base in their one correct
// order — Concurrent(Reliable(Chaos(base))) — regardless of the order the
// options are given in. Chaos must sit below Reliable so retries draw fresh
// faults; Concurrent must sit on top so fanned-out calls pass through the
// full retry and fault path. This is the only constructor the CLIs use.
func NewStack(base Network, opts ...StackOption) *Stack {
	var spec stackSpec
	for _, opt := range opts {
		opt(&spec)
	}
	s := &Stack{base: base, nodes: spec.nodes}
	if s.nodes == 0 {
		if nc, ok := base.(nodeCounter); ok {
			s.nodes = nc.NumNodes()
		}
	}
	nw := base
	if spec.chaos != nil {
		s.chaos = NewChaos(nw, *spec.chaos)
		nw = s.chaos
	}
	if spec.reliable != nil {
		if s.nodes == 0 {
			panic("transport: NewStack(WithReliable) needs a node count — base has no NumNodes; add WithNodes(n)")
		}
		s.reliable = NewReliable(nw, s.nodes, *spec.reliable)
		nw = s.reliable
	}
	if spec.metrics != nil {
		if s.nodes == 0 {
			panic("transport: NewStack(WithMetrics) needs a node count — base has no NumNodes; add WithNodes(n)")
		}
		s.metered = NewMetered(nw, s.nodes, spec.metrics)
		nw = s.metered
	}
	if spec.concurrency > 1 {
		nw = NewConcurrent(nw, spec.concurrency)
	}
	s.top = nw
	if spec.metrics != nil {
		s.registerScrape(spec.metrics)
	}
	return s
}

// registerScrape exports, at scrape time, the counters the stack already
// keeps for the engine: the per-node traffic/retry window (reset by
// ResetStats each epoch, hence gauges) and the chaos layer's monotonic
// injected-fault totals. Named registration means a rebuilt stack on the
// same registry replaces, rather than shadows, the previous one.
func (s *Stack) registerScrape(reg *obs.Registry) {
	nodeBytes := reg.GaugeVec("ecgraph_transport_node_bytes",
		"Per-node payload bytes in the current epoch window (reset each epoch).",
		"node", "direction")
	nodeMsgs := reg.GaugeVec("ecgraph_transport_node_messages",
		"Per-node round trips in the current epoch window.", "node")
	nodeRetries := reg.GaugeVec("ecgraph_transport_node_retries",
		"Retry-layer retries in the current epoch window.", "node")
	nodeTimeouts := reg.GaugeVec("ecgraph_transport_node_timeouts",
		"Retry-layer timeouts in the current epoch window.", "node")
	nodeGiveUps := reg.GaugeVec("ecgraph_transport_node_giveups",
		"Calls that exhausted retries in the current epoch window.", "node")
	nodeCorrupts := reg.GaugeVec("ecgraph_transport_node_corrupts",
		"Call attempts that failed a payload checksum in the current epoch window.", "node")
	injected := reg.GaugeVec("ecgraph_chaos_injected",
		"Injected faults since process start by kind (monotonic; zero without WithChaos).",
		"kind")
	type nodeHandles struct {
		out, in, msgs, retries, timeouts, giveups, corrupts *obs.Gauge
	}
	handles := make([]nodeHandles, s.nodes)
	for i := range handles {
		n := strconv.Itoa(i)
		handles[i] = nodeHandles{
			out:      nodeBytes.With(n, "out"),
			in:       nodeBytes.With(n, "in"),
			msgs:     nodeMsgs.With(n),
			retries:  nodeRetries.With(n),
			timeouts: nodeTimeouts.With(n),
			giveups:  nodeGiveUps.With(n),
			corrupts: nodeCorrupts.With(n),
		}
	}
	drops := injected.With("drop")
	errs := injected.With("error")
	spikes := injected.With("latency_spike")
	crashed := injected.With("crashed_call")
	corrupted := injected.With("corrupt")
	reg.OnScrapeNamed("transport-stack", func() {
		for i := range handles {
			st := s.top.NodeStats(i)
			handles[i].out.Set(float64(st.BytesOut))
			handles[i].in.Set(float64(st.BytesIn))
			handles[i].msgs.Set(float64(st.Messages))
			handles[i].retries.Set(float64(st.Retries))
			handles[i].timeouts.Set(float64(st.Timeouts))
			handles[i].giveups.Set(float64(st.GiveUps))
			handles[i].corrupts.Set(float64(st.Corrupts))
		}
		if s.chaos != nil {
			inj := s.chaos.Injected()
			drops.Set(float64(inj.Drops))
			errs.Set(float64(inj.Errors))
			spikes.Set(float64(inj.Spikes))
			crashed.Set(float64(inj.CrashedCalls))
			corrupted.Set(float64(inj.Corrupts))
		}
	})
}

// Register implements Network.
func (s *Stack) Register(node int, h Handler) { s.top.Register(node, h) }

// Call implements Network.
func (s *Stack) Call(src, dst int, method string, req []byte) ([]byte, error) {
	return s.top.Call(src, dst, method, req)
}

// CallMulti implements Network.
func (s *Stack) CallMulti(src int, calls []Call) []Result {
	return s.top.CallMulti(src, calls)
}

// CallDeadline implements DeadlineCaller, falling back to Call when no
// layer supports deadlines.
func (s *Stack) CallDeadline(src, dst int, method string, req []byte, timeout time.Duration) ([]byte, error) {
	if dc, ok := s.top.(DeadlineCaller); ok {
		return dc.CallDeadline(src, dst, method, req, timeout)
	}
	return s.top.Call(src, dst, method, req)
}

// NodeStats implements Network.
func (s *Stack) NodeStats(node int) Stats { return s.top.NodeStats(node) }

// ResetStats implements Network.
func (s *Stack) ResetStats() { s.top.ResetStats() }

// Close implements Network.
func (s *Stack) Close() error { return s.top.Close() }

// NumNodes returns the stack's node count, or 0 when unknown.
func (s *Stack) NumNodes() int { return s.nodes }

// Chaos returns the fault-injection layer, or nil without WithChaos.
func (s *Stack) Chaos() *Chaos { return s.chaos }

// Stats returns the merged per-layer counters: one Stats per node as seen
// from the top of the stack (traffic plus retry counters when Reliable is
// present) and the chaos layer's injected-fault totals.
func (s *Stack) Stats() StackStats {
	out := StackStats{}
	if s.nodes > 0 {
		out.Nodes = make([]Stats, s.nodes)
		for i := range out.Nodes {
			out.Nodes[i] = s.top.NodeStats(i)
		}
	}
	if s.chaos != nil {
		out.Injected = s.chaos.Injected()
	}
	return out
}

// String describes the composed stack, outermost layer first.
func (s *Stack) String() string {
	desc := "base"
	if s.chaos != nil {
		desc = "chaos(" + desc + ")"
	}
	if s.reliable != nil {
		desc = "reliable(" + desc + ")"
	}
	if s.metered != nil {
		desc = "metered(" + desc + ")"
	}
	if c, ok := s.top.(*Concurrent); ok {
		desc = fmt.Sprintf("concurrent[%d](%s)", c.limit, desc)
	}
	return desc
}
