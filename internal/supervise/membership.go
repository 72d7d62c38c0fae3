// Elastic cluster membership: versioned views of the worker roster, with
// join and leave announcements carried over the ordinary cluster transport
// and applied at epoch boundaries.
//
// The membership manager lives on the monitor node (the first parameter
// server, like the failure detector) and is the single source of truth for
// who is in the cluster. A view is an epoch-stamped roster with a
// generation number; announcements queue as pending changes and the engine
// transitions the cluster to the next generation at the boundary before an
// epoch runs — the synchronous barrier means no epoch ever observes two
// rosters. Workers joining announce from their own node id, so a join that
// cannot reach the monitor fails exactly like any other call from that
// node would.
package supervise

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ecgraph/internal/transport"
)

// Membership RPC methods served through the monitor node's wrapped handler.
const (
	// MethodJoin announces a new worker node; it queues until the next
	// epoch-boundary view transition.
	MethodJoin = "mem.join"
	// MethodLeave announces a planned departure (drain); the node keeps
	// serving until the transition removes it.
	MethodLeave = "mem.leave"
	// MethodView returns the current view (generation, epoch, members).
	MethodView = "mem.view"
)

// View is one generation of the cluster roster: the worker node ids active
// from the epoch it was installed at until the next transition.
type View struct {
	// Gen is the view's generation number, incremented on every transition.
	Gen int
	// Epoch is the training epoch the view was installed at (the first
	// epoch that runs under it).
	Epoch int
	// Members lists the active worker node ids, ascending.
	Members []int
}

// Has reports whether node is a member of the view.
func (v View) Has(node int) bool {
	for _, m := range v.Members {
		if m == node {
			return true
		}
	}
	return false
}

// Clone returns a deep copy.
func (v View) Clone() View {
	v.Members = append([]int(nil), v.Members...)
	return v
}

// String renders the view for logs.
func (v View) String() string {
	return fmt.Sprintf("gen %d @ epoch %d: workers %v", v.Gen, v.Epoch, v.Members)
}

// Membership tracks the cluster's versioned worker roster and the queued
// join/leave announcements. Handler goroutines enqueue; the engine drains
// at epoch boundaries via Advance. All methods are safe for concurrent use.
type Membership struct {
	mu      sync.Mutex
	view    View
	pending []pendingChange
	events  []Event
}

type pendingChange struct {
	node   int
	join   bool
	detail string
}

// NewMembership builds the manager with generation 0 installed at epoch 0
// over the boot roster.
func NewMembership(workers []int) *Membership {
	m := &Membership{view: View{Gen: 0, Epoch: 0, Members: append([]int(nil), workers...)}}
	sort.Ints(m.view.Members)
	return m
}

// View returns the current installed view.
func (m *Membership) View() View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view.Clone()
}

// HasPending reports whether announcements are queued for the next
// transition.
func (m *Membership) HasPending() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending) > 0
}

// enqueue records one announcement, deduplicating no-ops: a join of a
// current member with no pending leave (the double-join case — e.g. an
// announcement retried after a lost response) and a leave of a node that is
// neither a member nor joining are acknowledged without queueing.
func (m *Membership) enqueue(node int, join bool, detail string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	member := m.view.Has(node)
	for _, p := range m.pending {
		if p.node == node {
			member = p.join // latest queued intent wins
		}
	}
	if join == member {
		kind := EventLeave
		if join {
			kind = EventJoin
		}
		m.recordLocked(kind, node, m.view.Epoch, "duplicate announcement ignored: "+detail)
		return
	}
	m.pending = append(m.pending, pendingChange{node: node, join: join, detail: detail})
	if join {
		m.recordLocked(EventJoin, node, m.view.Epoch, detail)
	} else {
		m.recordLocked(EventLeave, node, m.view.Epoch, detail)
	}
}

// ForceLeave queues a departure on the node's behalf — the phi-detected
// permanent-death path, where the node cannot announce for itself.
func (m *Membership) ForceLeave(node int, detail string) {
	m.enqueue(node, false, detail)
}

// Advance installs the next view at the given epoch boundary, applying
// every queued announcement, and returns it along with the nodes that
// joined and left. With nothing pending it returns the current view and
// nil slices and does not advance the generation.
func (m *Membership) Advance(epoch int) (view View, joined, left []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pending) == 0 {
		return m.view.Clone(), nil, nil
	}
	members := make(map[int]bool, len(m.view.Members))
	for _, w := range m.view.Members {
		members[w] = true
	}
	// Collapse the queue to one net intent per node (latest wins) so a node
	// that flaps before the boundary — join then drain, or drain then
	// rejoin — is neither moved nor reported as churn.
	intent := make(map[int]bool, len(m.pending))
	for _, p := range m.pending {
		intent[p.node] = p.join
	}
	for node, join := range intent {
		if join && !members[node] {
			members[node] = true
			joined = append(joined, node)
		} else if !join && members[node] {
			delete(members, node)
			left = append(left, node)
		}
	}
	m.pending = nil
	next := View{Gen: m.view.Gen + 1, Epoch: epoch}
	for w := range members {
		next.Members = append(next.Members, w)
	}
	sort.Ints(next.Members)
	sort.Ints(joined)
	sort.Ints(left)
	if len(next.Members) == 0 {
		// An empty roster cannot train; refuse the transition so the engine
		// surfaces the pending leaves as an error instead of deadlocking.
		panic(fmt.Sprintf("supervise: view transition at epoch %d would empty the cluster", epoch))
	}
	m.view = next
	m.recordLocked(EventViewChange, -1, epoch,
		fmt.Sprintf("gen %d: +%v -%v -> %v", next.Gen, joined, left, next.Members))
	return m.view.Clone(), joined, left
}

// Record appends an event to the membership log.
func (m *Membership) Record(kind EventKind, node, epoch int, detail string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recordLocked(kind, node, epoch, detail)
}

func (m *Membership) recordLocked(kind EventKind, node, epoch int, detail string) {
	m.events = append(m.events, Event{Kind: kind, Worker: node, Epoch: epoch, Detail: detail, Wall: time.Now()})
}

// Events returns a snapshot of the membership log.
func (m *Membership) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// WrapHandler layers the membership RPCs over the monitor node's handler,
// the same way Supervisor.WrapHandler layers the heartbeat RPCs.
func (m *Membership) WrapHandler(inner transport.Handler) transport.Handler {
	return func(method string, req []byte) ([]byte, error) {
		switch method {
		case MethodJoin, MethodLeave:
			r := transport.NewReader(req)
			node := int(r.Int32())
			if node < 0 {
				return nil, fmt.Errorf("supervise: invalid member node %d", node)
			}
			m.enqueue(node, method == MethodJoin, "announced over transport")
			return encodeView(m.View()), nil
		case MethodView:
			return encodeView(m.View()), nil
		default:
			return inner(method, req)
		}
	}
}

func encodeView(v View) []byte {
	w := transport.NewWriter(12 + 4*len(v.Members))
	w.Uint32(uint32(v.Gen))
	w.Uint32(uint32(v.Epoch))
	members := make([]int32, len(v.Members))
	for i, m := range v.Members {
		members[i] = int32(m)
	}
	w.Int32s(members)
	return w.Bytes()
}

func decodeView(b []byte) View {
	r := transport.NewReader(b)
	v := View{Gen: int(r.Uint32()), Epoch: int(r.Uint32())}
	for _, m := range r.Int32s() {
		v.Members = append(v.Members, int(m))
	}
	return v
}

// AnnounceJoin announces node's intent to join from node's own id, so the
// announcement crosses every transport wrapper as that node's traffic, and
// returns the monitor's current view.
func AnnounceJoin(net transport.Network, node, monitor int) (View, error) {
	return announce(net, node, monitor, MethodJoin)
}

// AnnounceLeave announces a planned drain of node from node's own id and
// returns the monitor's current view.
func AnnounceLeave(net transport.Network, node, monitor int) (View, error) {
	return announce(net, node, monitor, MethodLeave)
}

func announce(net transport.Network, node, monitor int, method string) (View, error) {
	w := transport.NewWriter(4)
	w.Int32(int32(node))
	resp, err := net.Call(node, monitor, method, w.Bytes())
	if err != nil {
		return View{}, fmt.Errorf("supervise: %s for node %d: %w", method, node, err)
	}
	return decodeView(resp), nil
}

// DialAnnounce announces a membership intent against a cluster monitor's TCP
// listener from outside the cluster's node table — how a fresh machine asks
// to join (or a departing one to drain) before it owns any transport slot.
// Returns the monitor's current view; the intent takes effect at the next
// epoch boundary.
func DialAnnounce(addr string, node int, join bool) (View, error) {
	if node < 0 {
		return View{}, fmt.Errorf("supervise: invalid member node %d", node)
	}
	method := MethodLeave
	if join {
		method = MethodJoin
	}
	w := transport.NewWriter(4)
	w.Int32(int32(node))
	resp, err := transport.DialCall(addr, method, w.Bytes())
	if err != nil {
		return View{}, fmt.Errorf("supervise: %s for node %d: %w", method, node, err)
	}
	return decodeView(resp), nil
}
