package supervise

import (
	"reflect"
	"testing"
	"time"

	"ecgraph/internal/transport"
)

// TestMembershipAnnounceRPC: join/leave/view round-trip over the in-process
// transport through the wrapped monitor handler.
func TestMembershipAnnounceRPC(t *testing.T) {
	net := transport.NewInProc(6)
	defer net.Close()
	const monitor = 4
	m := NewMembership([]int{0, 1, 2, 3})
	net.Register(monitor, m.WrapHandler(func(method string, req []byte) ([]byte, error) {
		t.Fatalf("membership RPC leaked to inner handler: %s", method)
		return nil, nil
	}))

	v, err := AnnounceJoin(net, 5, monitor)
	if err != nil {
		t.Fatal(err)
	}
	if v.Gen != 0 || !reflect.DeepEqual(v.Members, []int{0, 1, 2, 3}) {
		t.Fatalf("join response must return the still-current view, got %v", v)
	}
	if _, err := AnnounceLeave(net, 2, monitor); err != nil {
		t.Fatal(err)
	}
	if !m.HasPending() {
		t.Fatal("announcements did not queue")
	}

	view, joined, left := m.Advance(7)
	if view.Gen != 1 || view.Epoch != 7 {
		t.Fatalf("advance: got %v", view)
	}
	if !reflect.DeepEqual(view.Members, []int{0, 1, 3, 5}) {
		t.Fatalf("members after transition: %v", view.Members)
	}
	if !reflect.DeepEqual(joined, []int{5}) || !reflect.DeepEqual(left, []int{2}) {
		t.Fatalf("joined %v left %v", joined, left)
	}

	resp, err := net.Call(0, monitor, MethodView, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeView(resp); !reflect.DeepEqual(got, view) {
		t.Fatalf("fetched view %v != installed %v", got, view)
	}
}

// TestMembershipDedup: double joins and leaves of non-members are
// acknowledged without queueing, and the latest queued intent wins when a
// node flaps before the boundary.
func TestMembershipDedup(t *testing.T) {
	m := NewMembership([]int{0, 1})

	m.enqueue(0, true, "double join")  // already a member
	m.enqueue(9, false, "never there") // not a member, not joining
	if m.HasPending() {
		t.Fatal("no-op announcements must not queue")
	}

	// Join then leave before the boundary: the node must not appear.
	m.enqueue(5, true, "join")
	m.enqueue(5, false, "changed mind")
	// Leave then rejoin before the boundary: the node must stay.
	m.enqueue(1, false, "drain")
	m.enqueue(1, true, "cancel drain")
	view, joined, left := m.Advance(3)
	if !reflect.DeepEqual(view.Members, []int{0, 1}) {
		t.Fatalf("flapping nodes resolved wrong: %v", view.Members)
	}
	if len(joined) != 0 || len(left) != 0 {
		t.Fatalf("net-zero flaps reported as churn: +%v -%v", joined, left)
	}
	if view.Gen != 1 {
		t.Fatalf("a drained pending queue still advances the generation, got gen %d", view.Gen)
	}
}

// TestMembershipAdvanceNoPending: with nothing queued the view is returned
// unchanged and the generation does not move.
func TestMembershipAdvanceNoPending(t *testing.T) {
	m := NewMembership([]int{2, 0})
	view, joined, left := m.Advance(9)
	if view.Gen != 0 || view.Epoch != 0 || joined != nil || left != nil {
		t.Fatalf("no-op advance mutated the view: %v +%v -%v", view, joined, left)
	}
	if !reflect.DeepEqual(view.Members, []int{0, 2}) {
		t.Fatalf("boot roster not sorted: %v", view.Members)
	}
}

// TestMembershipEmptyClusterPanics: a transition that would remove every
// worker must refuse loudly instead of deadlocking the barrier.
func TestMembershipEmptyClusterPanics(t *testing.T) {
	m := NewMembership([]int{0})
	m.ForceLeave(0, "last one out")
	defer func() {
		if recover() == nil {
			t.Fatal("emptying transition did not panic")
		}
	}()
	m.Advance(1)
}

// TestSetWorkersRoster: SetWorkers starts emitters for joiners, stops them
// for leavers, and resets detector state so a rejoining node is not
// condemned by its previous incarnation's silence.
func TestSetWorkersRoster(t *testing.T) {
	net := transport.NewInProc(4)
	defer net.Close()
	s := New(Options{HeartbeatInterval: time.Millisecond}, net, []int{0, 1}, 3)
	net.Register(3, s.WrapHandler(func(method string, req []byte) ([]byte, error) {
		return nil, nil
	}))
	s.Start()
	defer s.Stop()

	waitBeats := func(node int, min int64) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			if sent, _ := s.BeatCounts(node); sent >= min {
				return
			}
			if time.Now().After(deadline) {
				sent, acked := s.BeatCounts(node)
				t.Fatalf("node %d stuck at %d sent / %d acked, want >= %d", node, sent, acked, min)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitBeats(0, 3)
	waitBeats(1, 3)

	s.SetWorkers([]int{0, 2}) // 1 leaves, 2 joins
	if got := s.Workers(); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("roster after SetWorkers: %v", got)
	}
	waitBeats(2, 3)
	sent1, _ := s.BeatCounts(1)
	time.Sleep(20 * time.Millisecond)
	if after, _ := s.BeatCounts(1); after != sent1 {
		t.Fatalf("departed worker 1 still emitting (%d -> %d)", sent1, after)
	}

	// A re-added worker gets a fresh detector history: its status must be
	// healthy immediately even though its old incarnation went silent.
	s.SetWorkers([]int{0, 1, 2})
	if st := s.Status(1); st == StatusDead {
		t.Fatal("rejoined worker condemned by its previous incarnation")
	}
	waitBeats(1, 3)
}
