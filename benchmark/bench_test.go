package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"ecgraph/internal/serve"
	"ecgraph/internal/transport"
)

// No test in this file asserts a wall-clock value: they check the
// benchmark's own arithmetic with injected clocks, and that the smoke path
// produces every metric.

func TestLinkReservation(t *testing.T) {
	const us = time.Microsecond
	// 8 Mb/s is one byte per microsecond.
	l := newLink(3, 8e6)
	l.rtt = 500 * us

	// An idle link: serialise, then one round trip.
	if got := l.reserve(0, 1, 1000, 0); got != 1500*us {
		t.Fatalf("idle transfer done at %v, want 1.5ms", got)
	}
	// A second transfer from the same source at the same instant queues
	// behind the first on node 0's link, but not behind its RTT.
	if got := l.reserve(0, 2, 1000, 0); got != 2500*us {
		t.Fatalf("queued transfer done at %v, want 2.5ms", got)
	}
	// A transfer between two other... there are none: node 1 is free again
	// at 1ms, node 2 at 2ms, so 1→2 at t=0 waits for the later of the two.
	if got := l.reserve(1, 2, 500, 0); got != 3000*us {
		t.Fatalf("transfer behind both endpoints done at %v, want 3ms", got)
	}
	// Long after everything drained the link is idle again.
	if got := l.reserve(2, 0, 100, 10000*us); got != 10600*us {
		t.Fatalf("late transfer done at %v, want 10.6ms", got)
	}

	acct := l.snapshot()
	if a := acct[0]; a.calls != 2 || a.serialize != 2000*us || a.queue != 1000*us || a.rtt != 1000*us {
		t.Errorf("node 0 account %+v: want 2 calls, 2ms serialising, 1ms queued, 1ms RTT", a)
	}
	if a := acct[1]; a.calls != 1 || a.queue != 2000*us {
		t.Errorf("node 1 account %+v: want 1 call queued for 2ms", a)
	}
}

// TestLinkBytesMatchInProc pins linknet's byte count to what the in-process
// transport charges for the same call, framing included.
func TestLinkBytesMatchInProc(t *testing.T) {
	inner := transport.NewInProc(2)
	net := newLinknet(inner, 2, 1e12)
	net.link.rtt = 0
	net.Register(1, func(method string, req []byte) ([]byte, error) { return make([]byte, 777), nil })
	net.Register(0, func(method string, req []byte) ([]byte, error) { return nil, nil })
	const method = "w.getH"
	req := make([]byte, 123)
	if _, err := net.Call(0, 1, method, req); err != nil {
		t.Fatal(err)
	}
	want := inner.NodeStats(0).Total()
	got := int64(wireBytes(method, req, make([]byte, 777)))
	if got != want {
		t.Errorf("linknet charges %d bytes, the transport counted %d", got, want)
	}
	// Node-local calls are shared memory: free on both.
	if _, err := net.Call(0, 0, method, req); err != nil {
		t.Fatal(err)
	}
	if calls := net.link.snapshot()[0].calls; calls != 1 {
		t.Errorf("a node-local call was charged to the link (%d calls)", calls)
	}
}

func TestFoldSelfTime(t *testing.T) {
	spans := []span{
		{Name: "fp1 owned", Pid: 1, Start: 1, Dur: 2},
		{Name: "epoch 0", Cat: "epoch", Pid: 1, Start: 0, Dur: 10},
		{Name: "fp1 collect", Pid: 1, Start: 3, Dur: 1},
		{Name: "inner", Pid: 1, Start: 3.25, Dur: 0.5}, // grandchild
		{Name: "fp1 owned", Pid: 2, Start: 1, Dur: 4},  // another track
		{Name: "epoch 0", Cat: "epoch", Pid: 2, Start: 0, Dur: 10},
		{Name: "epoch 1", Cat: "epoch", Pid: 1, Start: 10, Dur: 5}, // abuts epoch 0
	}
	self := map[[2]interface{}]float64{}
	parent := map[[2]interface{}]string{}
	folded := fold(spans)
	for _, s := range folded {
		k := [2]interface{}{s.Pid, s.Name}
		self[k] = s.Self
		if s.Parent >= 0 {
			parent[k] = folded[s.Parent].Name
		}
	}
	for _, c := range []struct {
		pid    int
		name   string
		self   float64
		parent string
	}{
		{1, "epoch 0", 7, ""}, // 10 − 2 − 1: the grandchild is not subtracted twice
		{1, "fp1 owned", 2, "epoch 0"},
		{1, "fp1 collect", 0.5, "epoch 0"},
		{1, "inner", 0.5, "fp1 collect"},
		{1, "epoch 1", 5, ""},
		{2, "epoch 0", 6, ""},
		{2, "fp1 owned", 4, "epoch 0"},
	} {
		k := [2]interface{}{c.pid, c.name}
		if self[k] != c.self || parent[k] != c.parent {
			t.Errorf("pid %d %q: self %v parent %q, want %v %q", c.pid, c.name, self[k], parent[k], c.self, c.parent)
		}
	}
}

func TestWorkerBudgetCountsTheCriticalWorker(t *testing.T) {
	bounds := []float64{0, 10, 20}
	spans := withEpochSpans([]span{
		// Epoch 0: worker 1 (pid 2) is busy for 9 of 10, worker 0 for 4.
		{Name: "fp1 owned", Pid: 1, Start: 0, Dur: 4},
		{Name: "fp1 owned", Pid: 2, Start: 0, Dur: 3},
		{Name: "fp2 collect", Pid: 2, Start: 3, Dur: 6},
		// Epoch 1: worker 0 is the busy one.
		{Name: "bp2 fold", Pid: 1, Start: 10, Dur: 8},
		{Name: "bp2 fold", Pid: 2, Start: 10, Dur: 1},
		{Name: "issue getH l1", Pid: 1, Start: 11, Dur: 0}, // not a budget kind
	}, bounds, 2)
	got := workerBudget(fold(spans), bounds, []int{0, 1})
	want := map[string]float64{
		"worker.fp_owned_ms":        3e3 / 2,
		"worker.fp_collect_wait_ms": 6e3 / 2,
		"worker.bp_fold_ms":         8e3 / 2,
		"worker.other_ms":           (1e3 + 2e3) / 2,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("budget %v, want %v", got, want)
	}
	var sum float64
	for _, v := range got {
		sum += v
	}
	if sum != 10e3 {
		t.Errorf("the kinds add up to %v ms per epoch, the epochs last 10000", sum)
	}
}

func TestPercentilesAndTheTenBeyondRule(t *testing.T) {
	asc := make([]float64, 1000)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1}} {
		if got := percentile(asc, c.q); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v (needs ten samples beyond)", c.n, got, c.want)
		}
	}
	if b := beyond(1000, 0.99); b != 10 {
		t.Errorf("beyond(1000, p99) = %d, want 10", b)
	}
	// The quiet quartile: the lowest of up to four parts, the second lowest
	// of five, the third lowest of ten.
	for _, c := range []struct {
		v    []float64
		want float64
	}{{[]float64{7}, 7}, {[]float64{9, 3, 5}, 3}, {[]float64{8, 2, 6, 4}, 2}, {[]float64{5, 1, 4, 2, 3}, 2},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 3}} {
		if got := quiet(c.v); got != c.want {
			t.Errorf("quiet(%v) = %v, want %v", c.v, got, c.want)
		}
	}

	// Windows: 3000 samples in due order make three windows; a stall that
	// owns the tail of one window does not move the quiet quartile of the three.
	lat := make([]float64, 3000)
	for i := range lat {
		lat[i] = 4
	}
	for i := 1200; i < 1260; i++ {
		lat[i] = 80
	}
	tails := windowTails(lat)
	if len(tails) != 3 || tails[0] != 4 || tails[1] != 80 || tails[2] != 4 || quiet(tails) != 4 {
		t.Errorf("window tails %v, want [4 80 4]", tails)
	}
	if tails := windowTails(lat[:250]); len(tails) != 1 {
		t.Errorf("250 samples make %d windows, want 1", len(tails))
	}
}

// TestQuartilesMatchPython checks against statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5, 1, 9, 3, 7, 2, 8}, 2, 8},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python has %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25−2.75)/5.5 = 1", s)
	}
}

func TestDueTimes(t *testing.T) {
	due := dueTimes(250, 2)
	if len(due) != 500 {
		t.Fatalf("%d requests for 2 s at 250 req/s, want 500", len(due))
	}
	if due[0] != 0 || due[1] != 4*time.Millisecond || due[499] != 1996*time.Millisecond {
		t.Errorf("due[0,1,499] = %v, %v, %v", due[0], due[1], due[499])
	}
	// Absolute offsets: no drift accumulates at a rate whose interval is
	// not a whole number of nanoseconds.
	due = dueTimes(3000, 10)
	if last := due[len(due)-1]; last < 9999*time.Millisecond || last >= 10*time.Second {
		t.Errorf("last of 30000 requests due at %v", last)
	}
}

func TestBurstRateAndGroupMeans(t *testing.T) {
	// One request every 10 ms for a second; a bad one and one answered
	// after the end do not count.
	var recs []bulkRecord
	for at := 10 * time.Millisecond; at <= time.Second; at += 10 * time.Millisecond {
		recs = append(recs, bulkRecord{done: at})
	}
	recs = append(recs, bulkRecord{done: 50 * time.Millisecond, bad: true}, bulkRecord{done: 1100 * time.Millisecond})
	if got := burstRate(recs, time.Second); got != 100 {
		t.Errorf("burst rate %v req/s, want 100", got)
	}

	// Thirty timed epochs of 10 ms after the warm-up, every tenth (a sync
	// epoch) 100 ms, and a slow spell that triples the second group: the
	// median group mean is an undisturbed group's, sync epoch included.
	run := &trainRun{timed: 3 * ttr}
	at := time.Unix(0, 0)
	for e := 0; e <= warmEpochs+run.timed; e++ {
		run.hooks = append(run.hooks, at)
		d := 10 * time.Millisecond
		if (e+1)%ttr == 0 {
			d = 100 * time.Millisecond
		}
		if e >= warmEpochs+ttr && e < warmEpochs+2*ttr {
			d *= 3
		}
		at = at.Add(d)
	}
	want := []float64{19, 57, 19}
	if got := run.groupMeans(); !reflect.DeepEqual(got, want) || quiet(got) != 19 {
		t.Errorf("group means %v, want %v", got, want)
	}
	short := &trainRun{timed: 3, hooks: run.hooks}
	if got := short.groupMeans(); len(got) != 1 || got[0] != 10 {
		t.Errorf("a 3-epoch window has group means %v, want [10]", got)
	}
}

func TestOpenLoopTimesFromTheDueInstant(t *testing.T) {
	// A server that answers after 2 ms; whatever the generator's own jitter,
	// no latency may be below the service time, and every request is fired.
	recs, _ := openLoop(
		func(ids []int) ([]serve.Result, error) { time.Sleep(2 * time.Millisecond); return nil, nil },
		func([]serve.Result, error) bool { return true },
		dueTimes(500, 0.1), time.Second, rand.New(rand.NewSource(1)), 10)
	if len(recs) != 50 {
		t.Fatalf("%d records, want 50", len(recs))
	}
	for i, r := range recs {
		if !r.fired || r.bad {
			t.Fatalf("request %d not fired or bad: %+v", i, r)
		}
		if r.late < 0 || r.lat < r.late+2*time.Millisecond {
			t.Errorf("request %d: late %v, latency %v from due; want latency ≥ lateness + service time", i, r.late, r.lat)
		}
	}
}

func TestJudge(t *testing.T) {
	lowerIsBetter := metricDef{Name: "epoch_ms", Better: lower, Bound: 0.10}
	higherIsBetter := metricDef{Name: "test_acc", Better: higher, Bound: 0.03}
	tight := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lowerIsBetter, tight, []float64{105, 104, 106, 105, 105}, verdictOK},
		{lowerIsBetter, tight, []float64{115, 114, 116, 115, 115}, verdictRegressed},
		{lowerIsBetter, tight, []float64{80, 81, 79, 80, 80}, verdictOK}, // better
		{lowerIsBetter, []float64{80, 100, 120, 90, 110}, tight, verdictUnresolved},
		{higherIsBetter, []float64{0.90, 0.90, 0.90}, []float64{0.86, 0.86, 0.86}, verdictRegressed},
		{higherIsBetter, []float64{0.90, 0.90, 0.90}, []float64{0.95, 0.95, 0.95}, verdictOK},
		{metricDef{Name: "core.eval_ms", Better: lower}, tight, []float64{300, 300, 300}, ""}, // per-layer: no bound, no verdict
	} {
		if _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: verdict %q, want %q", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

// TestManifestMatchesCatalogue is the two-way check between BENCHMARK.json
// and what the program emits: the file must be exactly what the catalogue
// and the workload table generate (go run ./benchmark -manifest), and the
// smoke test below checks that a run emits exactly the catalogue.
func TestManifestMatchesCatalogue(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, generated interface{}
	if err := json.Unmarshal(blob, &onDisk); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(theManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &generated); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, generated) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with: go run ./benchmark -manifest > BENCHMARK.json")
	}
}

// TestManifestWithinContract checks the limits the driver refuses a
// manifest for.
func TestManifestWithinContract(t *testing.T) {
	m := theManifest()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	var setup *metricDef
	for i, d := range m.EndToEnd {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v outside the contract", d)
		}
		if d.Name == "setup_s" {
			setup = &m.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != lower {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	} else {
		for _, d := range m.EndToEnd {
			if d.Bound > setup.Bound {
				t.Errorf("%s has a larger bound than setup_s", d.Name)
			}
		}
	}
	for _, d := range m.PerLayer {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) || d.Bound != 0 {
			t.Errorf("per-layer metric %+v outside the contract", d)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
}

// TestSmoke runs the tiny workload through every probe, untraced and
// traced, and requires each run to emit exactly its half of the catalogue,
// finite, and to pass its correctness checks.
func TestSmoke(t *testing.T) {
	for _, traced := range []bool{false, true} {
		dir := t.TempDir()
		out, err := runWorkload(smokeWorkload, smokeOptions(1, traced, dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range out.problems {
			t.Errorf("traced=%v: failed check: %s", traced, p)
		}
		defs := defsFor(traced)
		if len(out.metrics) != len(defs) {
			t.Errorf("traced=%v: %d metrics emitted, the catalogue has %d", traced, len(out.metrics), len(defs))
		}
		for _, d := range defs {
			v, ok := out.metrics[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("traced=%v: metric %s missing or not finite (%v)", traced, d.Name, v)
			}
		}
		// Requests refused or not offered (out.failed) depend on
		// how busy the machine running the tests is, and are not asserted.
		if out.attempted < 1 {
			t.Errorf("traced=%v: %d operations attempted", traced, out.attempted)
		}
		if traced {
			blob, err := os.ReadFile(dir + "/trace-smoke.json")
			if err != nil {
				t.Fatal(err)
			}
			var tr traceFile
			if err := json.Unmarshal(blob, &tr); err != nil {
				t.Fatal(err)
			}
			if len(tr.Spans) == 0 || len(tr.Events) == 0 {
				t.Errorf("trace holds %d spans and %d events", len(tr.Spans), len(tr.Events))
			}
		}
	}
}

// TestSameSeedSameTrajectory: the seed is the only source of inputs.
func TestSameSeedSameTrajectory(t *testing.T) {
	d, err := smokeWorkload.dataset(7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := runTrain(smokeWorkload, d, 7, smokeWorkload.TimedEpochs, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runTrain(smokeWorkload, d, 7, smokeWorkload.TimedEpochs, &trainProbes{})
	if err != nil {
		t.Fatal(err)
	}
	if a.checksum() != b.checksum() {
		t.Errorf("same seed, checksums %016x (untraced) and %016x (traced)", a.checksum(), b.checksum())
	}
	d2, _ := smokeWorkload.dataset(8)
	c, err := runTrain(smokeWorkload, d2, 8, smokeWorkload.TimedEpochs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.checksum() == c.checksum() {
		t.Errorf("seeds 7 and 8 gave the same trajectory")
	}
}
