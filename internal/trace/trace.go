// Package trace exports training timelines in the Chrome trace-event
// format (chrome://tracing, Perfetto, speedscope): each epoch becomes a
// pair of compute/communication spans on the simulated-cluster timeline,
// making compression's effect on the comm share directly visible.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"ecgraph/internal/core"
)

// Event is one trace event: Chrome's "complete" form (ph = "X") for spans,
// or the "instant" form (ph = "i") for point-in-time marks like
// supervision decisions. Args carries structured extras (fault counters,
// event details) that the viewers show on selection.
type Event struct {
	Name     string         `json:"name"`
	Category string         `json:"cat"`
	Phase    string         `json:"ph"`
	TSMicros float64        `json:"ts"`
	DurMicro float64        `json:"dur,omitempty"`
	PID      int            `json:"pid"`
	TID      int            `json:"tid"`
	Scope    string         `json:"s,omitempty"`
	Args     map[string]any `json:"args,omitempty"`
}

// Recorder accumulates events; safe for concurrent Add.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Add records a span. Times are in seconds on whatever clock the caller
// uses; they are converted to the format's microseconds.
func (r *Recorder) Add(name, category string, pid, tid int, startSec, durSec float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, Event{
		Name: name, Category: category, Phase: "X",
		TSMicros: startSec * 1e6, DurMicro: durSec * 1e6,
		PID: pid, TID: tid,
	})
}

// AddArgs records a span with attached structured arguments.
func (r *Recorder) AddArgs(name, category string, pid, tid int, startSec, durSec float64, args map[string]any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, Event{
		Name: name, Category: category, Phase: "X",
		TSMicros: startSec * 1e6, DurMicro: durSec * 1e6,
		PID: pid, TID: tid, Args: args,
	})
}

// AddInstant records a point-in-time mark (global scope) with arguments.
func (r *Recorder) AddInstant(name, category string, pid, tid int, tsSec float64, args map[string]any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, Event{
		Name: name, Category: category, Phase: "i",
		TSMicros: tsSec * 1e6, PID: pid, TID: tid, Scope: "g", Args: args,
	})
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// WriteJSON emits the {"traceEvents": [...]} document, events sorted by
// start time for stable output.
func (r *Recorder) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	events := append([]Event(nil), r.events...)
	r.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool { return events[i].TSMicros < events[j].TSMicros })
	doc := struct {
		TraceEvents []Event `json:"traceEvents"`
	}{TraceEvents: events}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// WriteFile writes the trace document to path.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// FromResultInto lays a training result out on the simulated-cluster
// timeline of r: preprocessing first, then per epoch a compute span followed
// by a comm span, all on pid 0 / tid 0 with the epoch index in the span name.
// Epochs that saw transport faults carry their retry/timeout/give-up and
// degraded-fetch counters as span args, and every supervision event
// (suspect/dead transitions, respawns, rollbacks, ...) becomes an instant
// mark at the start of its epoch. r typically already holds live sub-epoch
// spans recorded through obs.Tracer; those use pid 1+workerID, so the two
// clocks never share a track.
func FromResultInto(r *Recorder, res *core.Result) {
	cursor := 0.0
	if res.PreprocessSeconds > 0 {
		r.Add("preprocess", "setup", 0, 0, cursor, res.PreprocessSeconds)
		cursor += res.PreprocessSeconds
	}
	epochStart := make([]float64, len(res.Epochs)+1)
	for t, e := range res.Epochs {
		epochStart[t] = cursor
		var args map[string]any
		if e.Faulted() {
			args = map[string]any{
				"retries": e.Retries, "timeouts": e.Timeouts, "giveups": e.GiveUps,
				"degraded_fetches": e.DegradedFetches, "straggler_skips": e.StragglerSkips,
			}
		}
		if e.ComputeSeconds > 0 {
			r.AddArgs(fmt.Sprintf("epoch %d compute", t), "compute", 0, 0, cursor, e.ComputeSeconds, args)
			cursor += e.ComputeSeconds
		}
		if e.CommSeconds > 0 {
			r.AddArgs(fmt.Sprintf("epoch %d comm", t), "comm", 0, 0, cursor, e.CommSeconds, args)
			cursor += e.CommSeconds
		}
	}
	epochStart[len(res.Epochs)] = cursor
	for _, ev := range res.SuperviseEvents {
		ts := cursor
		if ev.Epoch >= 0 && ev.Epoch < len(epochStart) {
			ts = epochStart[ev.Epoch]
		}
		args := map[string]any{"worker": ev.Worker, "epoch": ev.Epoch}
		if ev.Detail != "" {
			args["detail"] = ev.Detail
		}
		r.AddInstant("supervise: "+ev.Kind.String(), "supervise", 0, 0, ts, args)
	}
}
