package ps

import (
	"fmt"
	"sync"
)

// Routes is the versioned range→node table worker clients consult on every
// pull and push: entry i names the node currently serving range i. It is
// versioned like a membership view — promotion swaps an entry and bumps the
// generation — so logs and telemetry can attribute traffic to a routing
// epoch. One Routes instance is shared by every client in the process; a
// promotion is visible to all workers at their next call, which is exactly
// the failover semantics (in-flight calls to the dead node fail and are
// retried against the table's new entry by the engine's epoch replay).
type Routes struct {
	mu    sync.Mutex
	nodes []int
	gen   int
}

// NewRoutes builds a table with the given initial primary per range, at
// generation 0.
func NewRoutes(nodes []int) *Routes {
	return &Routes{nodes: append([]int(nil), nodes...)}
}

// Primary returns the node currently serving range i.
func (rt *Routes) Primary(i int) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.nodes[i]
}

// Len returns the number of ranges in the table.
func (rt *Routes) Len() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.nodes)
}

// SetPrimary reroutes range i to node — the failover promotion — and
// returns the table's new generation.
func (rt *Routes) SetPrimary(i, node int) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if i < 0 || i >= len(rt.nodes) {
		panic(fmt.Sprintf("ps: no such range %d in route table of %d", i, len(rt.nodes)))
	}
	rt.nodes[i] = node
	rt.gen++
	return rt.gen
}
