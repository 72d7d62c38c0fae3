package obs

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogramExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Add(2)
	c.Inc()
	g := r.GaugeVec("test_gauge", "a labeled gauge", "worker")
	g.With("0").Set(1.5)
	g.With("1").Set(-3)
	h := r.Histogram("test_seconds", "a histogram", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_total counter",
		"test_total 3",
		`test_gauge{worker="0"} 1.5`,
		`test_gauge{worker="1"} -3`,
		`test_seconds_bucket{le="0.1"} 1`,
		`test_seconds_bucket{le="1"} 2`,
		`test_seconds_bucket{le="+Inf"} 3`,
		"test_seconds_sum 5.55",
		"test_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// Every exposition line must be a comment or `name{labels} value` — the
// same check the CI obs-smoke step runs against a live /metrics page.
func TestExpositionParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "with \"quotes\" and \\slashes\\ in help\nand a newline").Inc()
	r.CounterVec("b_total", "labeled", "peer").With(`x"y\z`).Add(2)
	r.HistogramVec("c_seconds", "hist", []float64{1}, "src", "dst").With("0", "1").Observe(0.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Count(line, "\n") > 0 {
			t.Fatalf("unescaped newline in %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("no value separator in %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unterminated label set in %q", line)
			}
		}
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "help")
	b := r.Counter("same_total", "help")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	v1 := r.GaugeVec("same_gauge", "help", "l")
	v2 := r.GaugeVec("same_gauge", "help", "l")
	if v1.With("x") != v2.With("x") {
		t.Fatal("same family+labels returned distinct children")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with a different kind should panic")
		}
	}()
	r.Gauge("same_total", "help")
}

func TestBuildInfo(t *testing.T) {
	r := NewRegistry()
	r.BuildInfo("avx2")
	r.BuildInfo("avx2") // idempotent, like every registration
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`ecgraph_build_info{goarch=%q,kernel="avx2"} 1`, runtime.GOARCH)
	if strings.Count(b.String(), want) != 1 {
		t.Fatalf("exposition lacks exactly one %s:\n%s", want, b.String())
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	c.Add(1)
	c.Inc()
	r.Gauge("y", "").Set(2)
	r.Histogram("z", "", []float64{1}).Observe(3)
	r.CounterVec("v", "", "l").With("a").Inc()
	r.GaugeVec("w", "", "l").With("a").Add(1)
	r.HistogramVec("u", "", []float64{1}, "l").With("a").Observe(1)
	r.OnScrapeNamed("n", func() {})
	r.BuildInfo("go")
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	var tr *Tracer
	tr.Span("s", "c", 0, 0, time.Now(), time.Second)
	tr.Instant("i", "c", 0, 0, time.Now(), nil)
	var l *EventLog
	if err := l.Emit(map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestScrapeHooksRunAndReplace(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("hook_gauge", "")
	n := 0
	r.OnScrapeNamed("counter", func() { n++ })
	r.OnScrapeNamed("stack", func() { g.Set(1) })
	r.OnScrapeNamed("stack", func() { g.Set(2) }) // replaces, not stacks
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("hook under a second name ran %d times, want 1", n)
	}
	if !strings.Contains(b.String(), "hook_gauge 2") {
		t.Fatalf("named hook not replaced:\n%s", b.String())
	}
}

func TestConcurrentHandles(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "")
	h := r.Histogram("conc_seconds", "", DefLatencyBuckets)
	vec := r.CounterVec("conc_vec_total", "", "i")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			child := vec.With(fmt.Sprint(i % 2))
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j) * 1e-4)
				child.Inc()
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = r.WritePrometheus(io.Discard)
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter lost updates: %v", got)
	}
	if got := h.Count(); got != 8000 {
		t.Fatalf("histogram lost updates: %v", got)
	}
}

func TestServeMetricsAndPprof(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total", "").Add(7)
	s, err := Serve(":0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !strings.HasPrefix(s.Addr(), "127.0.0.1:") {
		t.Fatalf("host-less addr must bind loopback, got %s", s.Addr())
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "served_total 7") {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	if out := get("/debug/pprof/cmdline"); len(out) == 0 {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

func TestEventLogJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	l, err := OpenEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		Schema string `json:"schema"`
		Epoch  int    `json:"epoch"`
	}
	for i := 0; i < 3; i++ {
		if err := l.Emit(rec{Schema: "test.v1", Epoch: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d: %q", len(lines), lines)
	}
	if lines[1] != `{"schema":"test.v1","epoch":1}` {
		t.Fatalf("unexpected line: %s", lines[1])
	}
}

// The hot-path cost telemetry adds to the epoch goroutine: one atomic per
// event. Run with -benchmem to confirm zero allocations.
func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", "", DefLatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-5)
	}
}

func BenchmarkNilCounterAdd(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}
