package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunLoadChargesAndReportsAFallenBehindGenerator asks for a rate no
// generator can offer (a request per nanosecond), so the generator is behind
// its schedule from the first request to the last whatever the machine:
// the shortfall must show as OfferedQPS and fail the gate, and since every
// request was due at (nearly) the start of the window, latency from the due
// instant must grow to (nearly) the window's length even though the target
// answers at once — latency from the send instant would stay at microseconds.
func TestRunLoadChargesAndReportsAFallenBehindGenerator(t *testing.T) {
	cfg := LoadGenConfig{QPS: 1e9, Duration: 50 * time.Millisecond, MaxVertex: 10, Seed: 1}
	rep := RunLoad(func([]int) error { return nil }, cfg)

	asked := int(cfg.QPS * cfg.Duration.Seconds())
	if rep.Offered == 0 || rep.Offered >= asked {
		t.Fatalf("offered %d of %d asked", rep.Offered, asked)
	}
	if want := float64(rep.Offered) / cfg.Duration.Seconds(); rep.OfferedQPS != want || rep.OfferedQPS >= minOfferedFrac*cfg.QPS {
		t.Fatalf("OfferedQPS %v, want %v (well under the %v asked)", rep.OfferedQPS, want, cfg.QPS)
	}
	if got := rep.Completed + rep.Rejected + rep.Failed; got != rep.Offered {
		t.Fatalf("completed %d + rejected %d + failed %d != offered %d", rep.Completed, rep.Rejected, rep.Failed, rep.Offered)
	}
	if rep.Max < cfg.Duration/2 {
		t.Fatalf("max latency %v: the generator's lateness (up to %v) was not charged to the requests it delayed", rep.Max, cfg.Duration)
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	ok, err := rep.WriteBench(path, cfg, 0, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("gate passed a run that offered a fraction of the asked rate")
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Asked   float64 `json:"asked_qps"`
		Offered float64 `json:"offered_qps"`
		Gate    struct {
			OK bool `json:"ok"`
		} `json:"gate"`
	}
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Asked != cfg.QPS || rec.Offered != rep.OfferedQPS || rec.Gate.OK {
		t.Fatalf("record %+v does not carry asked %v, offered %v, gate false", rec, cfg.QPS, rep.OfferedQPS)
	}
}

// TestRunLoadOffersItsSchedule: at a rate the generator can hold, requests
// follow the schedule — never more than asked, each of the configured size,
// each answered — and the report's rates are taken over the asked window.
// (That all four are sent is the machine's doing, not asserted: a stall
// longer than the 50 ms between two of them may close the window first.)
func TestRunLoadOffersItsSchedule(t *testing.T) {
	cfg := LoadGenConfig{QPS: 20, Duration: 200 * time.Millisecond, MaxVertex: 10, BatchSize: 3, Seed: 1}
	var wrongSize atomic.Int64
	rep := RunLoad(func(ids []int) error {
		if len(ids) != cfg.BatchSize {
			wrongSize.Add(1)
		}
		return nil
	}, cfg)
	if rep.Offered < 1 || rep.Offered > 4 || rep.Completed != rep.Offered {
		t.Fatalf("offered %d, completed %d; want 1..4 offered and all answered", rep.Offered, rep.Completed)
	}
	if want := float64(rep.Offered) / cfg.Duration.Seconds(); rep.OfferedQPS != want {
		t.Fatalf("OfferedQPS %v, want %v", rep.OfferedQPS, want)
	}
	if n := wrongSize.Load(); n != 0 {
		t.Fatalf("%d requests did not carry %d vertices", n, cfg.BatchSize)
	}
}
