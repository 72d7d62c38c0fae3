package supervise

import (
	"math"
	"testing"
	"time"
)

// LastBeat returns the time of the worker's most recent heartbeat.
func (d *Detector) LastBeat(worker int) (time.Time, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.peers[worker]
	if !ok {
		return time.Time{}, false
	}
	return p.last, true
}

// fakeClock is a manually advanced clock for deterministic detector tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func (c *fakeClock) set(t time.Time)         { c.t = t }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func testDetector(clk *fakeClock) *Detector {
	return NewDetector(DetectorConfig{
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectAfter:      50 * time.Millisecond,
		DeadAfter:         150 * time.Millisecond,
		Now:               clk.now,
	})
}

// TestDetectorStateMachine walks healthy → suspect → dead on growing
// silence and back to healthy on a heartbeat. With no samples yet the
// detector models inter-arrivals as N(HB, HB/4), so under the fake clock
// every phi value below is deterministic: ~0.2 at 5ms of silence, ~4.5 at
// 20ms (suspect band [2, 8)), +Inf past the erfc underflow.
func TestDetectorStateMachine(t *testing.T) {
	clk := newFakeClock()
	d := testDetector(clk)
	d.Register(1)

	if st := d.Status(1); st != StatusHealthy {
		t.Fatalf("fresh registration: status %v, want healthy", st)
	}
	clk.advance(5 * time.Millisecond)
	if st := d.Status(1); st != StatusHealthy {
		t.Fatalf("at 5ms silence: status %v, want healthy", st)
	}

	// 20ms of silence: phi crosses PhiSuspect but stays below PhiDead.
	clk.advance(15 * time.Millisecond)
	if phi := d.Phi(1); phi < 2 || phi >= 8 {
		t.Fatalf("test premise broken: phi %v at 20ms, want [2, 8)", phi)
	}
	if st := d.Status(1); st != StatusSuspect {
		t.Fatalf("at 20ms silence: status %v, want suspect", st)
	}

	// Past DeadAfter: dead by the hard bound regardless of phi.
	clk.advance(140 * time.Millisecond)
	if st := d.Status(1); st != StatusDead {
		t.Fatalf("at 160ms silence: status %v, want dead", st)
	}

	// One heartbeat revives the worker, and regular beats keep it healthy.
	d.Beat(1)
	if st := d.Status(1); st != StatusHealthy {
		t.Fatalf("after revival beat: status %v, want healthy", st)
	}
	for i := 0; i < 20; i++ {
		clk.advance(10 * time.Millisecond)
		d.Beat(1)
	}
	if st := d.Status(1); st != StatusHealthy {
		t.Fatalf("after regular beats: status %v, want healthy", st)
	}
}

// TestDetectorPhiAccrues verifies phi is monotone in elapsed silence and
// crosses the suspicion thresholds in order.
func TestDetectorPhiAccrues(t *testing.T) {
	clk := newFakeClock()
	d := testDetector(clk)
	d.Register(0)
	for i := 0; i < 16; i++ {
		clk.advance(10 * time.Millisecond)
		d.Beat(0)
	}

	var prev float64 = -1
	for _, silence := range []time.Duration{
		5 * time.Millisecond, 15 * time.Millisecond, 30 * time.Millisecond, 60 * time.Millisecond,
	} {
		save := clk.t
		clk.advance(silence)
		phi := d.Phi(0)
		clk.set(save)
		if math.IsNaN(phi) {
			t.Fatalf("phi(%v) is NaN", silence)
		}
		if phi < prev {
			t.Fatalf("phi not monotone: phi(%v)=%v < previous %v", silence, phi, prev)
		}
		prev = phi
	}
	if prev < 2 {
		t.Fatalf("phi after 6x the heartbeat interval is %v, expected suspicion >= 2", prev)
	}
}

// TestDetectorPhiDeadNeedsSuspectBound: a beat history so regular that phi
// diverges on the first late beat must not declare the worker dead before
// the hard suspect bound has also elapsed — one scheduling hiccup may make
// the worker suspect, never trigger a respawn.
func TestDetectorPhiDeadNeedsSuspectBound(t *testing.T) {
	clk := newFakeClock()
	d := testDetector(clk)
	d.Register(0)
	for i := 0; i < 16; i++ {
		clk.advance(10 * time.Millisecond)
		d.Beat(0)
	}
	clk.advance(30 * time.Millisecond) // phi >> PhiDead, elapsed < SuspectAfter
	if phi := d.Phi(0); phi < 8 {
		t.Fatalf("test premise broken: phi %v should exceed PhiDead", phi)
	}
	if st := d.Status(0); st != StatusSuspect {
		t.Fatalf("status %v before the suspect bound, want suspect (not dead)", st)
	}
	clk.advance(30 * time.Millisecond) // past SuspectAfter, phi still diverged
	if st := d.Status(0); st != StatusDead {
		t.Fatalf("status %v past the suspect bound with diverged phi, want dead", st)
	}
}

// TestDetectorUnknownWorker: workers never registered are maximally
// suspicious, not silently healthy.
func TestDetectorUnknownWorker(t *testing.T) {
	d := testDetector(newFakeClock())
	if st := d.Status(7); st != StatusDead {
		t.Fatalf("unknown worker status %v, want dead", st)
	}
	if phi := d.Phi(7); !math.IsInf(phi, 1) {
		t.Fatalf("unknown worker phi %v, want +Inf", phi)
	}
	if _, ok := d.LastBeat(7); ok {
		t.Fatalf("unknown worker reported a last beat")
	}
}

// TestDetectorBeatBeforeRegister: a heartbeat from an unregistered worker
// starts monitoring it rather than being dropped.
func TestDetectorBeatBeforeRegister(t *testing.T) {
	clk := newFakeClock()
	d := testDetector(clk)
	d.Beat(3)
	if st := d.Status(3); st != StatusHealthy {
		t.Fatalf("status after first beat %v, want healthy", st)
	}
	if _, ok := d.LastBeat(3); !ok {
		t.Fatalf("no last beat recorded after Beat")
	}
}

// TestDetectorIrregularBeatsWidenTolerance: a worker with naturally noisy
// heartbeat cadence accrues suspicion more slowly than a metronomic one at
// the same absolute silence, because phi is scaled by the observed spread.
func TestDetectorIrregularBeatsWidenTolerance(t *testing.T) {
	clkR, clkN := newFakeClock(), newFakeClock()
	regular := testDetector(clkR)
	regular.Register(0)
	noisy := testDetector(clkN)
	noisy.Register(0)

	gaps := []time.Duration{4, 22, 7, 18, 5, 25, 9, 16, 4, 23, 6, 20}
	for range gaps {
		clkR.advance(10 * time.Millisecond)
		regular.Beat(0)
	}
	for _, g := range gaps {
		clkN.advance(g * time.Millisecond)
		noisy.Beat(0)
	}

	// Equal absolute silence after each detector's last beat.
	clkR.advance(30 * time.Millisecond)
	clkN.advance(30 * time.Millisecond)
	if pr, pn := regular.Phi(0), noisy.Phi(0); pn >= pr {
		t.Fatalf("noisy-cadence phi %v should be below regular-cadence phi %v at equal silence", pn, pr)
	}
}
