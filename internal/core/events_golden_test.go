package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"ecgraph/internal/obs"
	"ecgraph/internal/transport"
	"ecgraph/internal/worker"
)

// eventGoldenPath holds the epoch event log TestEpochEventLogGolden pins,
// one normalised record per line.
const eventGoldenPath = "testdata/epoch_events.golden.jsonl"

// wallClockKeys are the event keys whose values are wall-clock readings;
// the golden keeps the key and masks the value.
var wallClockKeys = []string{
	"compute_seconds", "comm_wire_seconds", "comm_blocked_seconds", "overlap_utilization",
}

// normaliseEvent decodes one event line into a key → value map with the
// wall-clock values masked.
func normaliseEvent(t *testing.T, line []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(line, &m); err != nil {
		t.Fatalf("event line %q: %v", line, err)
	}
	for _, k := range wallClockKeys {
		if _, ok := m[k]; ok {
			m[k] = "wall-clock"
		}
	}
	return m
}

// TestEpochEventLogGolden pins the seed-1 ecgraph.epoch.v1 log of a small
// run record by record: the set of keys in every record and every value
// that does not depend on the wall clock. The run is the 2-worker cora GCN
// with ReqEC-FP and ResEC-BP at 2 bits, under seeded ghost-exchange drops
// (retries, one give-up and one degraded fetch) and a scripted swap at
// epoch 4 — worker 2 joins as worker 1 drains — so the membership and
// supervise tails ride on the worker-0 record. Training is not supervised:
// heartbeats would put a wall-clock number of messages into the traffic
// keys. Never re-record the golden to make this pass.
func TestEpochEventLogGolden(t *testing.T) {
	cfg := coraConfig(8)
	cfg.Workers = 2
	cfg.Servers = 1
	cfg.Worker = worker.Options{
		FPScheme: worker.SchemeEC, BPScheme: worker.SchemeEC,
		FPBits: 2, BPBits: 2, Ttr: 5,
	}
	cfg.Elastic = &ElasticOptions{Plan: []MembershipChange{
		{Epoch: 4, Join: true, Worker: 2},
		{Epoch: 4, Worker: 1},
	}}
	var events bytes.Buffer
	cfg.Events = obs.NewEventLog(&events)
	stack := transport.NewStack(transport.NewInProc(3+cfg.Servers),
		transport.WithChaos(transport.ChaosConfig{
			Seed:     11,
			DropRate: 0.30,
			Methods:  []string{worker.MethodGetH, worker.MethodGetG},
		}),
		transport.WithReliable(transport.ReliableConfig{
			Timeout:     5 * time.Second,
			MaxAttempts: 3,
			BaseBackoff: 50 * time.Microsecond,
			Seed:        11,
		}),
		transport.WithConcurrency(4))
	defer stack.Close()
	cfg.Net = stack
	if _, err := Train(cfg); err != nil {
		t.Fatal(err)
	}

	golden, err := os.ReadFile(eventGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want, got []map[string]any
	for _, pair := range []struct {
		src []byte
		dst *[]map[string]any
	}{{golden, &want}, {events.Bytes(), &got}} {
		sc := bufio.NewScanner(bytes.NewReader(pair.src))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			*pair.dst = append(*pair.dst, normaliseEvent(t, sc.Bytes()))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("event log has %d records, golden %d", len(got), len(want))
	}
	for i := range want {
		if reflect.DeepEqual(got[i], want[i]) {
			continue
		}
		keys := map[string]bool{}
		for k := range want[i] {
			keys[k] = true
		}
		for k := range got[i] {
			keys[k] = true
		}
		var sorted []string
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			g, gok := got[i][k]
			w, wok := want[i][k]
			switch {
			case !gok:
				t.Errorf("record %d: key %q missing (golden %v)", i, k, w)
			case !wok:
				t.Errorf("record %d: key %q not in golden (got %v)", i, k, g)
			case !reflect.DeepEqual(g, w):
				t.Errorf("record %d: %q = %v, golden %v", i, k, g, w)
			}
		}
	}
}
