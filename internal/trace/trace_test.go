package trace

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"sync"
	"testing"

	"ecgraph/internal/core"
)

func TestRecorderJSONRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.Add("b", "compute", 0, 1, 0.002, 0.001)
	r.Add("a", "comm", 0, 1, 0.001, 0.001)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events", len(doc.TraceEvents))
	}
	// Sorted by start time: "a" (1ms) before "b" (2ms).
	if doc.TraceEvents[0].Name != "a" || doc.TraceEvents[1].Name != "b" {
		t.Fatalf("events not time-sorted: %+v", doc.TraceEvents)
	}
	if doc.TraceEvents[0].TSMicros != 1000 || doc.TraceEvents[0].DurMicro != 1000 {
		t.Fatalf("microsecond conversion wrong: %+v", doc.TraceEvents[0])
	}
	if doc.TraceEvents[0].Phase != "X" {
		t.Fatalf("phase must be X")
	}
}

func TestRecorderConcurrentAdd(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				r.Add("e", "c", i, j, float64(j), 1)
			}
		}(i)
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Fatalf("Len = %d", r.Len())
	}
}

// TestRecorderConcurrentAddAndWrite interleaves writers with readers: every
// Add/AddInstant/AddArgs path races against WriteJSON and Len, which the
// race detector turns into a hard failure if any access is unsynchronised.
func TestRecorderConcurrentAddAndWrite(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				switch j % 3 {
				case 0:
					r.Add("span", "c", i, j, float64(j), 1)
				case 1:
					r.AddArgs("span", "c", i, j, float64(j), 1, map[string]any{"j": j})
				default:
					r.AddInstant("mark", "c", i, j, float64(j), nil)
				}
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			if err := r.WriteJSON(&buf); err != nil {
				t.Error(err)
			}
			_ = r.Len()
		}()
	}
	wg.Wait()
	if r.Len() != 400 {
		t.Fatalf("Len = %d", r.Len())
	}
}

// TestWriteJSONDeterministic pins the output contract consumers rely on:
// repeated writes of one recorder are byte-identical, and events sharing a
// timestamp keep their insertion order (sort stability), so a rerun that
// records the same spans in the same order produces the same file.
func TestWriteJSONDeterministic(t *testing.T) {
	mk := func() *Recorder {
		r := NewRecorder()
		r.Add("late", "c", 0, 0, 2, 1)
		r.Add("tie-first", "c", 0, 0, 1, 1)
		r.Add("tie-second", "c", 0, 1, 1, 1)
		r.AddInstant("mark", "c", 0, 0, 0.5, map[string]any{"k": 1})
		return r
	}
	var a, b bytes.Buffer
	r := mk()
	if err := r.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("repeated WriteJSON differs:\n%s\n%s", a.String(), b.String())
	}
	var c bytes.Buffer
	if err := mk().WriteJSON(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatalf("identical recorders render differently:\n%s\n%s", a.String(), c.String())
	}
	var doc struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(doc.TraceEvents))
	for i, e := range doc.TraceEvents {
		got[i] = e.Name
	}
	want := []string{"mark", "tie-first", "tie-second", "late"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestFromResultInto merges the simulated timeline into a recorder already
// holding live worker spans: live spans stay on pid 1+, simulated events
// land on pid 0, nothing is lost.
func TestFromResultInto(t *testing.T) {
	r := NewRecorder()
	r.Add("fp1 owned", "fp", 1, 0, 0.001, 0.002) // live span, worker 0
	res := &core.Result{
		PreprocessSeconds: 0.5,
		Epochs:            []core.EpochStats{{ComputeSeconds: 0.1, CommSeconds: 0.2}},
	}
	FromResultInto(r, res)
	if r.Len() != 4 { // live + preprocess + compute + comm
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	pids := map[int]int{}
	for _, e := range doc.TraceEvents {
		pids[e.PID]++
	}
	if pids[0] != 3 || pids[1] != 1 {
		t.Fatalf("pid split %v, want 3 simulated on pid 0 and 1 live on pid 1", pids)
	}
}

func TestFromResultLayout(t *testing.T) {
	res := &core.Result{
		PreprocessSeconds: 0.5,
		Epochs: []core.EpochStats{
			{ComputeSeconds: 0.1, CommSeconds: 0.2},
			{ComputeSeconds: 0.3, CommSeconds: 0},
		},
	}
	r := NewRecorder()
	FromResultInto(r, res)
	// preprocess + (compute, comm) + compute = 4 events (zero comm skipped).
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// Spans must tile the timeline without overlap.
	var cursor float64
	for _, e := range doc.TraceEvents {
		if e.TSMicros < cursor-1e-6 {
			t.Fatalf("span %q overlaps previous (ts %v < cursor %v)", e.Name, e.TSMicros, cursor)
		}
		cursor = e.TSMicros + e.DurMicro
	}
	if cursor != (0.5+0.1+0.2+0.3)*1e6 {
		t.Fatalf("timeline ends at %v", cursor)
	}
}

func TestWriteFile(t *testing.T) {
	r := NewRecorder()
	r.Add("x", "c", 0, 0, 0, 1)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteFile(filepath.Join(t.TempDir(), "missing", "trace.json")); err == nil {
		t.Fatalf("expected error for bad path")
	}
}
