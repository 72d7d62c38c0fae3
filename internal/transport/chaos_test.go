package transport

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// FaultLog returns the injected fault events in canonical order — sorted by
// (Src, Dst, Seq) — so two runs with the same seed and per-edge traffic
// compare byte-identical regardless of goroutine interleaving. The log is
// capped at maxFaultLog events.
func (c *Chaos) FaultLog() []FaultEvent {
	c.logMu.Lock()
	out := make([]FaultEvent, len(c.log))
	copy(out, c.log)
	c.logMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Seq < b.Seq
	})
	return out
}

// FormatFaultLog renders the canonical fault log one event per line, for
// byte-for-byte comparison across runs.
func FormatFaultLog(events []FaultEvent) string {
	var b []byte
	for _, e := range events {
		b = append(b, fmt.Sprintf("%d->%d #%d %s %s\n", e.Src, e.Dst, e.Seq, e.Kind, e.Method)...)
	}
	return string(b)
}

// chaosOverEcho builds a 2-node InProc network wrapped in Chaos.
func chaosOverEcho(cfg ChaosConfig) *Chaos {
	nw := NewInProc(2)
	nw.Register(0, echoHandler)
	nw.Register(1, echoHandler)
	return NewChaos(nw, cfg)
}

// faultPattern records, for a sequence of identical calls, which ones failed.
func faultPattern(c *Chaos, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if _, err := c.Call(0, 1, "m", []byte("x")); err != nil {
			b.WriteByte('F')
		} else {
			b.WriteByte('.')
		}
	}
	return b.String()
}

func TestChaosDeterministicAcrossRuns(t *testing.T) {
	cfg := ChaosConfig{Seed: 42, DropRate: 0.2, ErrorRate: 0.1}
	a := faultPattern(chaosOverEcho(cfg), 200)
	b := faultPattern(chaosOverEcho(cfg), 200)
	if a != b {
		t.Fatalf("same seed produced different fault patterns:\n%s\n%s", a, b)
	}
	c := faultPattern(chaosOverEcho(ChaosConfig{Seed: 43, DropRate: 0.2, ErrorRate: 0.1}), 200)
	if a == c {
		t.Fatalf("different seeds produced identical fault patterns")
	}
}

func TestChaosDropRateApproximation(t *testing.T) {
	c := chaosOverEcho(ChaosConfig{Seed: 7, DropRate: 0.2})
	const n = 2000
	fails := strings.Count(faultPattern(c, n), "F")
	// 0.2 ± generous slack for a hash-based uniform draw.
	if fails < n*10/100 || fails > n*30/100 {
		t.Fatalf("drop rate 0.2 produced %d/%d failures", fails, n)
	}
	inj := c.Injected()
	if inj.Drops != int64(fails) || inj.Errors != 0 {
		t.Fatalf("injected counters %+v vs %d observed failures", inj, fails)
	}
}

func TestChaosInjectedErrorsAreClassified(t *testing.T) {
	c := chaosOverEcho(ChaosConfig{Seed: 1, DropRate: 1})
	_, err := c.Call(0, 1, "m", nil)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("dropped call error %v is not ErrInjected", err)
	}
	c = chaosOverEcho(ChaosConfig{Seed: 1, ErrorRate: 1})
	if _, err := c.Call(0, 1, "m", nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("error-response error %v is not ErrInjected", err)
	}
}

func TestChaosCrashWindow(t *testing.T) {
	c := chaosOverEcho(ChaosConfig{Seed: 1, Crash: []CrashWindow{{Node: 1, From: 2, To: 5}}})
	// Calls 1..6 on the global sequence: 2,3,4 hit the window.
	got := faultPattern(c, 6)
	if got != ".FFF.." {
		t.Fatalf("crash window [2,5) produced pattern %q, want .FFF..", got)
	}
	if inj := c.Injected(); inj.CrashedCalls != 3 {
		t.Fatalf("CrashedCalls = %d, want 3", inj.CrashedCalls)
	}
}

func TestChaosLatencySpike(t *testing.T) {
	c := chaosOverEcho(ChaosConfig{Seed: 1, LatencyRate: 1, Latency: 30 * time.Millisecond})
	start := time.Now()
	if _, err := c.Call(0, 1, "m", nil); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("latency spike not applied: call took %v", elapsed)
	}
	if inj := c.Injected(); inj.Spikes != 1 {
		t.Fatalf("Spikes = %d, want 1", inj.Spikes)
	}
}

func TestChaosLocalCallsImmune(t *testing.T) {
	c := chaosOverEcho(ChaosConfig{Seed: 1, DropRate: 1, ErrorRate: 1})
	for i := 0; i < 20; i++ {
		if _, err := c.Call(1, 1, "m", nil); err != nil {
			t.Fatalf("local call faulted: %v", err)
		}
	}
}

func TestChaosMethodFilter(t *testing.T) {
	c := chaosOverEcho(ChaosConfig{Seed: 1, DropRate: 1, Methods: []string{"ghost"}})
	if _, err := c.Call(0, 1, "ghost", nil); err == nil {
		t.Fatalf("listed method not faulted")
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Call(0, 1, "ps.push", nil); err != nil {
			t.Fatalf("unlisted method faulted: %v", err)
		}
	}
}

func TestChaosPerPairIndependentOfInterleaving(t *testing.T) {
	// The fault decision for pair (0,1)'s k-th call must not depend on
	// traffic between other pairs. Run once with only the (0,1) stream, once
	// with (2,3) traffic interleaved, and compare the (0,1) pattern.
	mk := func() (*Chaos, Network) {
		nw := NewInProc(4)
		for i := 0; i < 4; i++ {
			nw.Register(i, echoHandler)
		}
		return NewChaos(nw, ChaosConfig{Seed: 5, DropRate: 0.3}), nw
	}
	pattern := func(c *Chaos, interleave bool) string {
		var b strings.Builder
		for i := 0; i < 100; i++ {
			if interleave {
				c.Call(2, 3, "m", nil)
			}
			if _, err := c.Call(0, 1, "m", nil); err != nil {
				b.WriteByte('F')
			} else {
				b.WriteByte('.')
			}
		}
		return b.String()
	}
	a, _ := mk()
	b, _ := mk()
	if pa, pb := pattern(a, false), pattern(b, true); pa != pb {
		t.Fatalf("pair (0,1) fault pattern depends on other pairs' traffic:\n%s\n%s", pa, pb)
	}
}

func TestChaosFaultLogDeterministicUnderConcurrency(t *testing.T) {
	// Acceptance criterion for the pipelined transport: a seeded chaos run
	// must produce a byte-identical fault event log across runs even when
	// every (src,dst) pair drives its calls from its own goroutine. Per-pair
	// fault streams make the decisions independent of goroutine scheduling,
	// and FaultLog sorts into canonical (src,dst,seq) order.
	run := func() string {
		nw := NewInProc(4)
		for i := 0; i < 4; i++ {
			nw.Register(i, echoHandler)
		}
		c := NewChaos(nw, ChaosConfig{Seed: 77, DropRate: 0.15, ErrorRate: 0.05})
		var wg sync.WaitGroup
		for src := 0; src < 4; src++ {
			for dst := 0; dst < 4; dst++ {
				if src == dst {
					continue
				}
				wg.Add(1)
				go func(src, dst int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						c.Call(src, dst, "m", []byte("x")) // faults intentionally ignored
					}
				}(src, dst)
			}
		}
		wg.Wait()
		return FormatFaultLog(c.FaultLog())
	}
	a, b := run(), run()
	if a == "" {
		t.Fatalf("chaos injected nothing")
	}
	if a != b {
		t.Fatalf("fault logs differ between identically-seeded concurrent runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
}

func TestChaosPassThroughStats(t *testing.T) {
	nw := NewInProc(2)
	nw.Register(0, echoHandler)
	nw.Register(1, echoHandler)
	c := NewChaos(nw, ChaosConfig{Seed: 1})
	if _, err := c.Call(0, 1, "m", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if s := c.NodeStats(0); s.Messages != 1 || s.BytesOut == 0 {
		t.Fatalf("stats not passed through: %+v", s)
	}
	c.ResetStats()
	if s := c.NodeStats(0); s.Messages != 0 {
		t.Fatalf("ResetStats not passed through: %+v", s)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestChaosSeedZeroDiffersFromSeedOne(t *testing.T) {
	// Guard against the mixer degenerating at seed 0.
	p0 := faultPattern(chaosOverEcho(ChaosConfig{Seed: 0, DropRate: 0.5}), 64)
	p1 := faultPattern(chaosOverEcho(ChaosConfig{Seed: 1, DropRate: 0.5}), 64)
	if p0 == p1 {
		t.Fatalf("seed 0 and seed 1 produced identical patterns %q", p0)
	}
	if !strings.Contains(p0, "F") || !strings.Contains(p0, ".") {
		t.Fatalf("seed 0 pattern degenerate: %q", p0)
	}
}

func ExampleChaos() {
	nw := NewInProc(2)
	nw.Register(1, func(method string, req []byte) ([]byte, error) { return req, nil })
	chaotic := NewChaos(nw, ChaosConfig{Seed: 3, DropRate: 0.5})
	ok := 0
	for i := 0; i < 10; i++ {
		if _, err := chaotic.Call(0, 1, "echo", []byte("x")); err == nil {
			ok++
		}
	}
	fmt.Println(ok < 10 && ok > 0)
	// Output: true
}
