package main

import (
	"sync"
	"time"

	"ecgraph/internal/transport"
)

// callKey identifies one direction of one RPC method on one node: the
// calling node for caller-side time, the serving node for handler time.
type callKey struct {
	node   int
	method string
}

// callAcct accumulates one key's calls.
type callAcct struct {
	calls int64
	busy  time.Duration // Σ over calls of request-to-reply (caller) or time in the handler
	wall  time.Duration // time with at least one call in flight: concurrent calls count once
	bytes int64         // caller side only: request + response + framing

	inFlight int
	since    time.Time // when inFlight last rose from zero
}

// meterSnap is a copy of a meternet's counters at one instant; two of them
// bracket a timed window.
type meterSnap struct {
	calls    map[callKey]callAcct // remote calls, keyed by caller
	handlers map[callKey]callAcct // handler time, keyed by serving node
}

// sub returns s − earlier, key by key.
func (s meterSnap) sub(earlier meterSnap) meterSnap {
	diff := func(now, then map[callKey]callAcct) map[callKey]callAcct {
		out := make(map[callKey]callAcct, len(now))
		for k, a := range now {
			b := then[k]
			out[k] = callAcct{calls: a.calls - b.calls, busy: a.busy - b.busy, wall: a.wall - b.wall, bytes: a.bytes - b.bytes}
		}
		return out
	}
	return meterSnap{calls: diff(s.calls, earlier.calls), handlers: diff(s.handlers, earlier.handlers)}
}

// total sums a method's accounts over all nodes.
func total(m map[callKey]callAcct, method string) callAcct {
	var t callAcct
	for k, a := range m {
		if k.method == method {
			t.calls += a.calls
			t.busy += a.busy
			t.wall += a.wall
			t.bytes += a.bytes
		}
	}
	return t
}

// worst returns the largest per-node wall time of a method: the node on the
// critical path.
func worst(m map[callKey]callAcct, method string) time.Duration {
	var w time.Duration
	for k, a := range m {
		if k.method == method && a.wall > w {
			w = a.wall
		}
	}
	return w
}

// meternet is the transport probe of the traced run: it sits between the
// link emulation and the fan-out layer, times every remote call per method
// from the caller's side, and wraps the handlers passed to Register to time
// the responder's work. watch names one method whose handler arrival times
// are kept (parameter pushes, for the barrier skew).
type meternet struct {
	transport.Network
	watch string

	mu       sync.Mutex
	calls    map[callKey]*callAcct
	handlers map[callKey]*callAcct
	arrivals map[int][]time.Time // serving node → arrival instants of watch
}

func newMeternet(inner transport.Network, watch string) *meternet {
	return &meternet{
		Network:  inner,
		watch:    watch,
		calls:    map[callKey]*callAcct{},
		handlers: map[callKey]*callAcct{},
		arrivals: map[int][]time.Time{},
	}
}

// begin opens a call on k and returns the function that closes it.
func (m *meternet) begin(into map[callKey]*callAcct, k callKey) (end func(bytes int)) {
	start := time.Now()
	m.mu.Lock()
	a := into[k]
	if a == nil {
		a = &callAcct{}
		into[k] = a
	}
	if a.inFlight == 0 {
		a.since = start
	}
	a.inFlight++
	m.mu.Unlock()
	return func(bytes int) {
		now := time.Now()
		m.mu.Lock()
		a.calls++
		a.busy += now.Sub(start)
		a.bytes += int64(bytes)
		if a.inFlight--; a.inFlight == 0 {
			a.wall += now.Sub(a.since)
		}
		m.mu.Unlock()
	}
}

// Register implements transport.Network, timing the handler.
func (m *meternet) Register(node int, h transport.Handler) {
	m.Network.Register(node, func(method string, req []byte) ([]byte, error) {
		if method == m.watch {
			m.mu.Lock()
			m.arrivals[node] = append(m.arrivals[node], time.Now())
			m.mu.Unlock()
		}
		end := m.begin(m.handlers, callKey{node, method})
		resp, err := h(method, req)
		end(0)
		return resp, err
	})
}

// Call implements transport.Network, timing remote calls.
func (m *meternet) Call(src, dst int, method string, req []byte) ([]byte, error) {
	if src == dst {
		return m.Network.Call(src, dst, method, req)
	}
	end := m.begin(m.calls, callKey{src, method})
	resp, err := m.Network.Call(src, dst, method, req)
	end(wireBytes(method, req, resp))
	return resp, err
}

// CallMulti implements transport.Network.
func (m *meternet) CallMulti(src int, calls []transport.Call) []transport.Result {
	return transport.SequentialMulti(m, src, calls)
}

// snapshot copies the counters. Calls still in flight are not in it.
func (m *meternet) snapshot() meterSnap {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp := func(in map[callKey]*callAcct) map[callKey]callAcct {
		out := make(map[callKey]callAcct, len(in))
		for k, a := range in {
			out[k] = *a
		}
		return out
	}
	return meterSnap{calls: cp(m.calls), handlers: cp(m.handlers)}
}

// arrivalSkew groups each node's watched arrivals into rounds of perRound
// (a synchronous barrier: every worker pushes once per version) and returns
// the mean of last − first over all rounds that began at or after from.
func (m *meternet) arrivalSkew(perRound int, from time.Time) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum time.Duration
	var rounds int
	for _, at := range m.arrivals {
		for i := 0; i+perRound <= len(at); i += perRound {
			if at[i].Before(from) {
				continue
			}
			first, last := at[i], at[i]
			for _, t := range at[i : i+perRound] {
				if t.Before(first) {
					first = t
				}
				if t.After(last) {
					last = t
				}
			}
			sum += last.Sub(first)
			rounds++
		}
	}
	if rounds == 0 {
		return 0
	}
	return sum / time.Duration(rounds)
}
