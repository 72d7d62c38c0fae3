package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// span is one timed interval on a track. A track is a (pid, tid) pair, as
// in the Chrome trace format the program's own tracer targets: pid 1+w is
// worker w, pid 0 the engine.
type span struct {
	Name  string  `json:"name"`
	Cat   string  `json:"cat"`
	Pid   int     `json:"pid"`
	Tid   int     `json:"tid"`
	Start float64 `json:"start_s"`
	Dur   float64 `json:"dur_s"`
	// Parent indexes the enclosing span in the recorder's list, −1 for a
	// root; Self is Dur minus the part its children cover. Both are filled
	// by fold.
	Parent int     `json:"parent"`
	Self   float64 `json:"self_s"`
}

func (s span) end() float64 { return s.Start + s.Dur }

// instant is a zero-length mark (the worker's "issue getH" events).
type instant struct {
	Name string  `json:"name"`
	Pid  int     `json:"pid"`
	At   float64 `json:"at_s"`
}

// spanRecorder is the obs.SpanSink of the traced run: everything stays in
// memory until the run is over.
type spanRecorder struct {
	mu       sync.Mutex
	spans    []span
	instants []instant
}

// Add implements obs.SpanSink.
func (r *spanRecorder) Add(name, category string, pid, tid int, startSec, durSec float64) {
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Cat: category, Pid: pid, Tid: tid, Start: startSec, Dur: durSec, Parent: -1})
	r.mu.Unlock()
}

// AddInstant implements obs.SpanSink.
func (r *spanRecorder) AddInstant(name, category string, pid, tid int, tsSec float64, _ map[string]interface{}) {
	r.mu.Lock()
	r.instants = append(r.instants, instant{Name: name, Pid: pid, At: tsSec})
	r.mu.Unlock()
}

// fold links every span to the innermost span of its track that encloses
// it and computes self times: a span's duration minus the part of it that
// its direct children cover (children of one parent on one track do not
// overlap, so their durations add). Spans are reordered by track and start.
func fold(spans []span) []span {
	out := append([]span(nil), spans...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Dur > b.Dur // the enclosing span first
	})
	var stack []int // open spans of the current track, outermost first
	for i := range out {
		s := &out[i]
		s.Parent, s.Self = -1, s.Dur
		if len(stack) > 0 {
			if top := out[stack[0]]; top.Pid != s.Pid || top.Tid != s.Tid {
				stack = stack[:0]
			}
		}
		for len(stack) > 0 && out[stack[len(stack)-1]].end() < s.end() {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			s.Parent = stack[len(stack)-1]
			out[s.Parent].Self -= s.Dur
		}
		stack = append(stack, i)
	}
	return out
}

// traceFile is the layout of benchmark/out/trace-<workload>.json.
type traceFile struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Spans    []span    `json:"spans"`
	Instants []instant `json:"instants"`
	// Events are the program's own ecgraph.epoch.v1 records, one per worker
	// per epoch, verbatim.
	Events []json.RawMessage `json:"events"`
}

func writeTrace(path string, t traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
