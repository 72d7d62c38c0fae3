package obs

import "time"

// SpanSink receives trace spans and instants. trace.Recorder satisfies it
// structurally; obs defines the interface locally so instrumented
// packages (worker, supervise) need not import the trace package, which
// itself depends on core.
type SpanSink interface {
	Add(name, category string, pid, tid int, startSec, durSec float64)
	AddInstant(name, category string, pid, tid int, tsSec float64, args map[string]interface{})
}

// Tracer timestamps spans relative to a base instant and forwards them to
// a sink. A nil *Tracer drops everything; hot paths check for nil once
// per span group so disabled tracing costs a branch, not a time.Now.
type Tracer struct {
	sink SpanSink
	base time.Time
}

// NewTracer wraps sink; the tracer's clock starts now. Returns nil for a
// nil sink so `cfg.Tracer = obs.NewTracer(maybeNil)` stays a no-op.
func NewTracer(sink SpanSink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink, base: time.Now()}
}

// Span records a complete span that began at start and lasted dur.
func (t *Tracer) Span(name, category string, pid, tid int, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.sink.Add(name, category, pid, tid, start.Sub(t.base).Seconds(), dur.Seconds())
}

// Instant records a zero-duration event at ts.
func (t *Tracer) Instant(name, category string, pid, tid int, ts time.Time, args map[string]interface{}) {
	if t == nil {
		return
	}
	t.sink.AddInstant(name, category, pid, tid, ts.Sub(t.base).Seconds(), args)
}
