package main

import (
	"sync"
	"time"

	"ecgraph/internal/transport"
)

// frameBytes is the per-message framing the in-process transport charges on
// top of the payload and the method name (transport.frameOverhead, which is
// unexported); TestLinkBytesMatchInProc pins the two together.
const frameBytes = 13

// wireBytes is what one remote call puts on the wire: both payloads, and the
// framing and method name once in each direction.
func wireBytes(method string, req, resp []byte) int {
	return len(req) + len(resp) + 2*(frameBytes+len(method))
}

// linkRTT is DESIGN.md §2's per-round-trip latency.
const linkRTT = 500 * time.Microsecond

// link holds the reservation state of an emulated network: every node has
// one full-duplex-shared link of the same bandwidth, and a transfer occupies
// the links of both its endpoints for bytes/bandwidth. It is split from
// linknet so the arithmetic can be tested without a clock.
type link struct {
	bytesPerSec float64
	rtt         time.Duration

	mu   sync.Mutex
	free []time.Duration // per node: when its link is next idle, since the net's start
	acct []linkAcct      // per node, charged to the calling node
}

// linkAcct is one node's share of link time, for the per-layer report.
type linkAcct struct {
	queue, serialize, rtt time.Duration
	calls                 int64
}

func newLink(nodes int, bitsPerSec float64) *link {
	return &link{
		bytesPerSec: bitsPerSec / 8,
		rtt:         linkRTT,
		free:        make([]time.Duration, nodes),
		acct:        make([]linkAcct, nodes),
	}
}

// reserve books a transfer of n bytes between src and dst at time now and
// returns when the caller may proceed: the transfer starts once both links
// are idle, holds them for n/bandwidth, and the reply lands one RTT later.
func (l *link) reserve(src, dst int, n int, now time.Duration) time.Duration {
	ser := time.Duration(float64(n) / l.bytesPerSec * float64(time.Second))
	l.mu.Lock()
	start := now
	if l.free[src] > start {
		start = l.free[src]
	}
	if l.free[dst] > start {
		start = l.free[dst]
	}
	end := start + ser
	l.free[src], l.free[dst] = end, end
	a := &l.acct[src]
	a.queue += start - now
	a.serialize += ser
	a.rtt += l.rtt
	a.calls++
	l.mu.Unlock()
	return end + l.rtt
}

// snapshot returns a copy of the per-node accounts.
func (l *link) snapshot() []linkAcct {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]linkAcct(nil), l.acct...)
}

// linknet is a transport.Network that emulates DESIGN.md §2's cost model in
// real time over an inner in-process network: the handler runs first (its
// compute is real), then the call sleeps for the time the request and
// response would have spent on the wire. Sleeping costs no CPU, so overlap,
// fan-out and byte savings all show up in wall-clock. Node-local calls are
// shared memory and free, as in the inner network's counters.
type linknet struct {
	transport.Network
	link *link
	base time.Time
}

func newLinknet(inner transport.Network, nodes int, bitsPerSec float64) *linknet {
	return &linknet{Network: inner, link: newLink(nodes, bitsPerSec), base: time.Now()}
}

// Call implements transport.Network.
func (n *linknet) Call(src, dst int, method string, req []byte) ([]byte, error) {
	resp, err := n.Network.Call(src, dst, method, req)
	if err != nil || src == dst {
		return resp, err
	}
	until := n.link.reserve(src, dst, wireBytes(method, req, resp), time.Since(n.base))
	time.Sleep(until - time.Since(n.base))
	return resp, nil
}

// CallMulti implements transport.Network: one call at a time, so that the
// Concurrent layer above overlaps the sleeps as it would overlap sockets.
func (n *linknet) CallMulti(src int, calls []transport.Call) []transport.Result {
	return transport.SequentialMulti(n, src, calls)
}
