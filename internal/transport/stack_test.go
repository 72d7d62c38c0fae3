package transport

import (
	"strings"
	"testing"
	"time"
)

func TestStackComposesInFixedOrder(t *testing.T) {
	// Options are order-insensitive: the stack always composes
	// Concurrent(Reliable(Chaos(base))).
	a := NewStack(newEchoInProc(2),
		WithConcurrency(4),
		WithReliable(ReliableConfig{MaxAttempts: 2, BaseBackoff: time.Microsecond}),
		WithChaos(ChaosConfig{Seed: 1}),
	)
	b := NewStack(newEchoInProc(2),
		WithChaos(ChaosConfig{Seed: 1}),
		WithReliable(ReliableConfig{MaxAttempts: 2, BaseBackoff: time.Microsecond}),
		WithConcurrency(4),
	)
	const want = "concurrent[4](reliable(chaos(base)))"
	if a.String() != want || b.String() != want {
		t.Fatalf("stack order depends on option order: %q vs %q (want %q)", a, b, want)
	}
	if a.Chaos() == nil || a.reliable == nil {
		t.Fatalf("layer accessors lost the wrappers")
	}
}

func TestStackChaosBelowReliableSoRetriesRecover(t *testing.T) {
	// The order guarantee is behavioural, not cosmetic: with chaos below the
	// retry layer every retry draws a fresh fault, so a 30% drop rate is
	// fully absorbed. If chaos sat above Reliable a dropped call would fail
	// without any retry ever firing.
	s := NewStack(newEchoInProc(2),
		WithChaos(ChaosConfig{Seed: 11, DropRate: 0.3}),
		WithReliable(ReliableConfig{MaxAttempts: 6, BaseBackoff: time.Microsecond}),
	)
	for i := 0; i < 200; i++ {
		if _, err := s.Call(0, 1, "m", []byte("x")); err != nil {
			t.Fatalf("call %d failed through the stack: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Injected.Drops == 0 {
		t.Fatalf("chaos layer injected nothing")
	}
	var retries int64
	for _, ns := range st.Nodes {
		retries += ns.Retries
	}
	if retries == 0 {
		t.Fatalf("reliable layer recorded no retries over %d injected drops", st.Injected.Drops)
	}
}

func TestStackStatsMergesLayers(t *testing.T) {
	s := NewStack(newEchoInProc(3),
		WithChaos(ChaosConfig{Seed: 1}),
		WithReliable(ReliableConfig{MaxAttempts: 2, BaseBackoff: time.Microsecond}),
	)
	if _, err := s.Call(0, 1, "m", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(st.Nodes) != 3 {
		t.Fatalf("Stats has %d node entries, want 3", len(st.Nodes))
	}
	if st.Nodes[0].Messages == 0 || st.Nodes[0].BytesOut == 0 {
		t.Fatalf("node 0 traffic not merged: %+v", st.Nodes[0])
	}
}

func TestStackBareBase(t *testing.T) {
	s := NewStack(newEchoInProc(2))
	if s.String() != "base" {
		t.Fatalf("bare stack described as %q", s)
	}
	resp, err := s.Call(0, 1, "m", []byte("x"))
	if err != nil || string(resp) != "m/x" {
		t.Fatalf("bare stack call: %q, %v", resp, err)
	}
	if s.Chaos() != nil || s.reliable != nil {
		t.Fatalf("bare stack invented layers")
	}
	if s.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d from InProc base", s.NumNodes())
	}
}

// nodelessNet is a Network with no NumNodes, for the WithNodes requirement.
type nodelessNet struct{ Network }

func TestStackReliableNeedsNodeCount(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatalf("NewStack(WithReliable) over a nodeless base did not panic")
		} else if !strings.Contains(r.(string), "WithNodes") {
			t.Fatalf("panic %q does not point at WithNodes", r)
		}
	}()
	NewStack(&nodelessNet{newEchoInProc(2)},
		WithReliable(ReliableConfig{MaxAttempts: 2}))
}

func TestStackWithNodesOverride(t *testing.T) {
	s := NewStack(&nodelessNet{newEchoInProc(2)},
		WithNodes(2),
		WithReliable(ReliableConfig{MaxAttempts: 2, BaseBackoff: time.Microsecond}),
	)
	if _, err := s.Call(0, 1, "m", nil); err != nil {
		t.Fatal(err)
	}
	if s.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d with WithNodes(2)", s.NumNodes())
	}
}

func TestStackCallDeadlinePassesThrough(t *testing.T) {
	nw := NewInProc(2)
	nw.Register(1, func(method string, req []byte) ([]byte, error) {
		time.Sleep(100 * time.Millisecond)
		return req, nil
	})
	s := NewStack(nw,
		WithReliable(ReliableConfig{MaxAttempts: 1, BaseBackoff: time.Microsecond}),
		WithConcurrency(2),
	)
	start := time.Now()
	_, err := s.CallDeadline(0, 1, "slow", nil, 5*time.Millisecond)
	if err == nil {
		t.Fatalf("deadline ignored by the stack")
	}
	if elapsed := time.Since(start); elapsed > 80*time.Millisecond {
		t.Fatalf("deadlined call blocked for %v", elapsed)
	}
}
