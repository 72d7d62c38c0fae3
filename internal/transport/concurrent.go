package transport

import (
	"sync"
	"sync/atomic"
	"time"
)

// Concurrent wraps a Network so CallMulti fans its batch out across a
// bounded number of goroutines per invocation. Results stay index-aligned
// with the calls, so callers that merge by call order (the worker installs
// each owner's rows at its pair list's slots) remain deterministic
// regardless of completion order.
// Single Calls pass through untouched.
//
// The wrapper requires the inner stack to be goroutine-safe; every Network
// in this package is.
type Concurrent struct {
	inner Network
	limit int
}

// NewConcurrent wraps inner with a per-CallMulti fan-out of at most limit
// goroutines. limit <= 1 keeps batches sequential.
func NewConcurrent(inner Network, limit int) *Concurrent {
	return &Concurrent{inner: inner, limit: limit}
}

// Register implements Network.
func (c *Concurrent) Register(node int, h Handler) { c.inner.Register(node, h) }

// Call implements Network.
func (c *Concurrent) Call(src, dst int, method string, req []byte) ([]byte, error) {
	return c.inner.Call(src, dst, method, req)
}

// CallDeadline implements DeadlineCaller when the inner stack does.
func (c *Concurrent) CallDeadline(src, dst int, method string, req []byte, timeout time.Duration) ([]byte, error) {
	if dc, ok := c.inner.(DeadlineCaller); ok {
		return dc.CallDeadline(src, dst, method, req, timeout)
	}
	return c.inner.Call(src, dst, method, req)
}

// CallMulti implements Network: up to limit worker goroutines pull calls
// off the batch by atomic index and write each Result into its call's slot.
func (c *Concurrent) CallMulti(src int, calls []Call) []Result {
	n := c.limit
	if n > len(calls) {
		n = len(calls)
	}
	if n <= 1 {
		return SequentialMulti(c.inner, src, calls)
	}
	results := make([]Result, len(calls))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	for g := 0; g < n; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(calls) {
					return
				}
				results[i] = doCall(c.inner, src, calls[i])
			}
		}()
	}
	wg.Wait()
	return results
}

// NodeStats implements Network.
func (c *Concurrent) NodeStats(node int) Stats { return c.inner.NodeStats(node) }

// ResetStats implements Network.
func (c *Concurrent) ResetStats() { c.inner.ResetStats() }

// Close implements Network.
func (c *Concurrent) Close() error { return c.inner.Close() }
