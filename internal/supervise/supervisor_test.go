package supervise

import (
	"fmt"
	"testing"
	"time"

	"ecgraph/internal/transport"
)

// BeatCounts returns how many heartbeats the worker node's emitter
// delivered and how many failed in transit.
func (s *Supervisor) BeatCounts(node int) (sent, failed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.beats[node]
	if b == nil {
		return 0, 0
	}
	return b.sent, b.failed
}

// TestWrapHandlerRoutes: sup.beat feeds the detector, sup.ping answers,
// everything else reaches the inner handler untouched.
func TestWrapHandlerRoutes(t *testing.T) {
	net := transport.NewInProc(2)
	defer net.Close()
	s := New(Options{HeartbeatInterval: 10 * time.Millisecond}, net, []int{0}, 1)

	inner := 0
	h := s.WrapHandler(func(method string, req []byte) ([]byte, error) {
		inner++
		return []byte("inner:" + method), nil
	})

	before, _ := s.det.LastBeat(0)
	w := transport.NewWriter(8)
	w.Int32(0)
	w.Uint32(1)
	time.Sleep(time.Millisecond) // ensure the beat timestamp moves
	if _, err := h(MethodBeat, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	after, _ := s.det.LastBeat(0)
	if !after.After(before) {
		t.Fatalf("beat did not advance LastBeat (%v -> %v)", before, after)
	}

	if _, err := h(MethodPing, nil); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if inner != 0 {
		t.Fatalf("supervision RPCs leaked to the inner handler (%d calls)", inner)
	}
	resp, err := h("other.method", nil)
	if err != nil || string(resp) != "inner:other.method" {
		t.Fatalf("passthrough broken: %q, %v", resp, err)
	}
	if inner != 1 {
		t.Fatalf("inner handler saw %d calls, want 1", inner)
	}
}

// TestEmittersAndProbe runs real heartbeat emitters over the in-process
// transport: workers stay healthy while emitting, and a probe succeeds
// against any registered node and counts as a beat.
func TestEmittersAndProbe(t *testing.T) {
	const workers = 2
	net := transport.NewInProc(workers + 1)
	defer net.Close()
	s := New(Options{HeartbeatInterval: 2 * time.Millisecond}, net, []int{0, 1}, workers)
	// Monitor and workers all answer the supervision RPCs.
	for n := 0; n <= workers; n++ {
		net.Register(n, s.WrapHandler(func(method string, req []byte) ([]byte, error) {
			return nil, fmt.Errorf("unexpected method %s", method)
		}))
	}

	s.Start()
	defer s.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for {
		sent0, _ := s.BeatCounts(0)
		sent1, _ := s.BeatCounts(1)
		if sent0 >= 5 && sent1 >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("emitters too slow: %d/%d beats delivered", sent0, sent1)
		}
		time.Sleep(time.Millisecond)
	}
	for _, w := range []int{0, 1} {
		if st := s.Status(w); st != StatusHealthy {
			t.Fatalf("worker %d status %v while beating, want healthy", w, st)
		}
	}
	if !s.Probe(0) {
		t.Fatalf("probe to a live node failed")
	}
	for _, w := range s.Workers() {
		if s.Status(w) == StatusDead {
			t.Fatalf("worker %d dead on a healthy cluster", w)
		}
	}
}

// fakeLatNet is a Network with a canned per-destination latency estimate.
type fakeLatNet struct {
	transport.Network
	avg map[int]time.Duration
}

func (f *fakeLatNet) AvgLatency(dst int) time.Duration { return f.avg[dst] }

// TestPeerDeadlineClamp: the straggler deadline is Mult x EWMA clamped to
// [MinDeadline, MaxDeadline], and zero without latency data.
func TestPeerDeadlineClamp(t *testing.T) {
	inner := transport.NewInProc(4)
	defer inner.Close()
	net := &fakeLatNet{Network: inner, avg: map[int]time.Duration{
		1: 10 * time.Millisecond,
		2: 10 * time.Microsecond,
		3: 10 * time.Second,
	}}
	s := New(Options{
		StragglerMult: 4,
		MinDeadline:   time.Millisecond,
		MaxDeadline:   time.Second,
	}, net, []int{0, 1, 2, 3}, 0)

	if d := s.PeerDeadline(1); d != 40*time.Millisecond {
		t.Fatalf("deadline for 10ms EWMA: %v, want 40ms", d)
	}
	if d := s.PeerDeadline(2); d != time.Millisecond {
		t.Fatalf("deadline below floor not clamped: %v", d)
	}
	if d := s.PeerDeadline(3); d != time.Second {
		t.Fatalf("deadline above ceiling not clamped: %v", d)
	}
	if d := s.PeerDeadline(0); d != 0 {
		t.Fatalf("no latency sample should mean no deadline, got %v", d)
	}

	// A transport without latency stats disables deadlines entirely.
	plain := New(Options{}, inner, []int{0}, 1)
	if d := plain.PeerDeadline(0); d != 0 {
		t.Fatalf("deadline without a latency source: %v", d)
	}
}

// TestEventString covers the log rendering used by the CLIs.
func TestEventString(t *testing.T) {
	e := Event{Kind: EventRespawn, Worker: 2, Epoch: 7, Detail: "x"}
	if got := e.String(); got != "epoch 7: worker 2 respawn (x)" {
		t.Fatalf("event string %q", got)
	}
	c := Event{Kind: EventExactSync, Worker: -1, Epoch: 3}
	if got := c.String(); got != "epoch 3: cluster exact-sync" {
		t.Fatalf("cluster event string %q", got)
	}
	if got := EventKind(99).String(); got != "EventKind(99)" {
		t.Fatalf("unknown kind string %q", got)
	}
}

// TestOptionsDefaults pins the derived defaults the flags document.
func TestOptionsDefaults(t *testing.T) {
	o := Options{HeartbeatInterval: 10 * time.Millisecond}.WithDefaults()
	if o.SuspectAfter != 50*time.Millisecond || o.DeadAfter != 150*time.Millisecond {
		t.Fatalf("silence bounds %v/%v, want 5x/15x the heartbeat", o.SuspectAfter, o.DeadAfter)
	}
	if o.MaxRecoveries != 16 || o.RecoveryBackoff != o.HeartbeatInterval {
		t.Fatalf("recovery defaults: %+v", o)
	}
	if o.ProbeInterval != 5*time.Millisecond || o.ProbeBudget != 200*time.Millisecond {
		t.Fatalf("probe defaults: %v / %v", o.ProbeInterval, o.ProbeBudget)
	}
	if o.LossSpikeSigma != 8 || o.StragglerMult != 8 {
		t.Fatalf("guard defaults: %+v", o)
	}
}
