// Package obs is the runtime telemetry layer: a dependency-free metrics
// registry (atomic counters, gauges, fixed-bucket histograms, labeled
// families) with Prometheus text-format exposition, an HTTP endpoint that
// serves /metrics next to net/http/pprof, a JSONL event log for
// structured per-epoch records, and a nil-safe Tracer that feeds
// sub-epoch spans into any Chrome-trace recorder.
//
// The package imports nothing from the rest of the repo so every other
// package may depend on it. All handle methods are no-ops on nil
// receivers: code paths hold pre-resolved *Counter/*Gauge/*Histogram
// handles and call them unconditionally; with telemetry off the handles
// are nil and the calls cost one predictable branch. Hot paths stay
// allocation-free — values are atomics, histograms have fixed
// preallocated buckets, and labeled children are resolved once at setup
// time, never per observation.
package obs

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Float-valued so that
// accumulated durations (seconds) and byte totals share one type; integer
// counts lose nothing below 2^53.
type Counter struct {
	bits atomic.Uint64
}

// Add increments the counter. Negative deltas are ignored (counters are
// monotonic by contract).
func (c *Counter) Add(v float64) {
	if c == nil || v <= 0 {
		return
	}
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by v.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets defined at
// registration. Buckets are upper bounds (Prometheus `le` semantics); an
// implicit +Inf bucket is always present.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; counts[len(bounds)] is +Inf
	sum    Counter
	total  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// DefLatencyBuckets covers RPC latencies from 10µs to 10s.
var DefLatencyBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
	250e-3, 500e-3, 1, 2.5, 5, 10,
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one exposition family: a name, help text, a kind, a label
// schema, and the children keyed by their label values.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64

	mu       sync.Mutex
	order    []string // label-value keys in first-seen order
	children map[string]interface{}
}

const keySep = "\x1f"

func (f *family) child(values []string) interface{} {
	if f == nil {
		return nil
	}
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: family %s has labels %v, got %d values", f.name, f.labels, len(values)))
	}
	key := strings.Join(values, keySep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	var c interface{}
	switch f.kind {
	case kindCounter:
		c = &Counter{}
	case kindGauge:
		c = &Gauge{}
	case kindHistogram:
		c = &Histogram{bounds: f.buckets, counts: make([]atomic.Int64, len(f.buckets)+1)}
	}
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// Registry holds metric families and scrape hooks. The zero value is not
// usable; construct with NewRegistry. A nil *Registry is a valid no-op
// sink: every method returns nil handles whose operations do nothing.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	byKey map[string]*family
	hooks []scrapeHook
}

type scrapeHook struct {
	name string
	fn   func()
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*family{}}
}

// BuildInfo exports ecgraph_build_info, a constant 1 whose labels say what
// this binary computes with: its GOARCH and the loop under the dense
// products (tensor.Kernel(): "avx2" or "go"; passed in, as this package
// imports nothing of the repo), so that a slow epoch on a host without the
// vector kernel explains itself from a scrape.
func (r *Registry) BuildInfo(kernel string) {
	r.GaugeVec("ecgraph_build_info",
		"Constant 1; the labels name the architecture and the arithmetic loop under the dense products.",
		"goarch", "kernel").With(runtime.GOARCH, kernel).Set(1)
}

func (r *Registry) family(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byKey[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s with labels %v (was %s %v)",
				name, kind, labels, f.kind, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %s re-registered with labels %v (was %v)", name, labels, f.labels))
			}
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...), buckets: append([]float64(nil), buckets...),
		children: map[string]interface{}{},
	}
	r.byKey[name] = f
	r.fams = append(r.fams, f)
	return f
}

// Counter registers (or finds) an unlabeled counter. Registration is
// idempotent: asking twice for the same name returns the same handle.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, kindCounter, nil, nil)
	if f == nil {
		return nil
	}
	return f.child(nil).(*Counter)
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, kindGauge, nil, nil)
	if f == nil {
		return nil
	}
	return f.child(nil).(*Gauge)
}

// Histogram registers (or finds) an unlabeled histogram with the given
// bucket upper bounds (must be sorted ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.family(name, help, kindHistogram, nil, buckets)
	if f == nil {
		return nil
	}
	return f.child(nil).(*Histogram)
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.family(name, help, kindCounter, labels, nil)}
}

// With resolves one child; hold the handle, do not call With per event.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil || v.f == nil {
		return nil
	}
	return v.f.child(values).(*Counter)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.family(name, help, kindGauge, labels, nil)}
}

// With resolves one child gauge.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil || v.f == nil {
		return nil
	}
	return v.f.child(values).(*Gauge)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.family(name, help, kindHistogram, labels, buckets)}
}

// With resolves one child histogram.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil || v.f == nil {
		return nil
	}
	return v.f.child(values).(*Histogram)
}

// OnScrapeNamed registers fn to run at the start of every exposition, before
// values are read. Use it to copy externally-owned counters (transport node
// stats, chaos totals, detector phi) into gauges at scrape time instead of
// paying for bookkeeping on the hot path. The name identifies the hook:
// registering a second hook under the same name drops the first.
// Components that may be rebuilt within one process (a transport stack per
// training run, a supervisor per Train call) use this so only the live
// instance exports.
func (r *Registry) OnScrapeNamed(name string, fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.hooks {
		if r.hooks[i].name == name {
			r.hooks[i].fn = fn
			return
		}
	}
	r.hooks = append(r.hooks, scrapeHook{name: name, fn: fn})
}

// WritePrometheus runs the scrape hooks and writes every family in
// Prometheus text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hooks := append([]scrapeHook(nil), r.hooks...)
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	for _, h := range hooks {
		h.fn()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	f.mu.Lock()
	order := append([]string(nil), f.order...)
	children := make(map[string]interface{}, len(f.children))
	for k, v := range f.children {
		children[k] = v
	}
	f.mu.Unlock()
	if len(order) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, key := range order {
		var values []string
		if len(f.labels) > 0 {
			values = strings.Split(key, keySep)
		}
		switch c := children[key].(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %s\n", f.name, renderLabels(f.labels, values, "", ""), formatFloat(c.Value()))
		case *Gauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, renderLabels(f.labels, values, "", ""), formatFloat(c.Value()))
		case *Histogram:
			cum := int64(0)
			for i, bound := range c.bounds {
				cum += c.counts[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					renderLabels(f.labels, values, "le", formatFloat(bound)), cum)
			}
			cum += c.counts[len(c.bounds)].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, renderLabels(f.labels, values, "le", "+Inf"), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, renderLabels(f.labels, values, "", ""), formatFloat(c.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, renderLabels(f.labels, values, "", ""), c.Count())
		}
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func renderLabels(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
