package main

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"ecgraph/internal/core"
	"ecgraph/internal/transport"
)

func TestParseElasticPlan(t *testing.T) {
	cases := []struct {
		name          string
		joins, drains string
		boot, slots   int
		plan          []core.MembershipChange
		maxWorkers    int
		err           string
	}{
		{name: "none", boot: 4, maxWorkers: 4},
		{name: "auto-joins-and-drain", joins: "8,14", drains: "22:1", boot: 4, maxWorkers: 6,
			plan: []core.MembershipChange{
				{Epoch: 8, Join: true, Worker: -1},
				{Epoch: 14, Join: true, Worker: -1},
				{Epoch: 22, Worker: 1},
			}},
		{name: "explicit-id-past-autos", joins: "10:7", boot: 4, maxWorkers: 8,
			plan: []core.MembershipChange{{Epoch: 10, Join: true, Worker: 7}}},
		{name: "slots-sit-above-the-plan", joins: "8", boot: 3, slots: 2, maxWorkers: 6,
			plan: []core.MembershipChange{{Epoch: 8, Join: true, Worker: -1}}},
		{name: "slots-alone", boot: 3, slots: 2, maxWorkers: 5},
		{name: "negative-slots", boot: 3, slots: -1, err: "-elastic-slots"},
		{name: "bad-epoch", joins: "x", boot: 4, err: "bad epoch"},
		{name: "negative-epoch", drains: "-1:2", boot: 4, err: "bad epoch"},
		{name: "bad-node", drains: "3:y", boot: 4, err: "bad node id"},
		{name: "drain-needs-node", drains: "3", boot: 4, err: "want epoch:node"},
		{name: "too-many-parts", joins: "1:2:3", boot: 4, err: "want epoch:node"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, maxW, err := parseElasticPlan(tc.joins, tc.drains, tc.boot, tc.slots)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want one mentioning %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if maxW != tc.maxWorkers || !reflect.DeepEqual(plan, tc.plan) {
				t.Fatalf("got plan %+v over %d workers, want %+v over %d", plan, maxW, tc.plan, tc.maxWorkers)
			}
		})
	}
}

func TestChaosConfig(t *testing.T) {
	const nodes = 4 // -workers 3 -servers 1
	cases := []struct {
		name          string
		drop, corrupt float64
		crash         string
		force         bool
		want          *transport.ChaosConfig
		err           string
	}{
		{name: "off"},
		{name: "kill-ps-forces-the-layer", force: true, want: &transport.ChaosConfig{Seed: 7}},
		{name: "rates", drop: 0.05, corrupt: 1, want: &transport.ChaosConfig{Seed: 7, DropRate: 0.05, CorruptRate: 1}},
		{name: "crash-windows", crash: "1:150:158,3:0:1", want: &transport.ChaosConfig{Seed: 7,
			Crash: []transport.CrashWindow{{Node: 1, From: 150, To: 158}, {Node: 3, From: 0, To: 1}}}},
		{name: "drop-above-one", drop: 1.5, err: "-chaos-drop"},
		{name: "drop-negative", drop: -0.1, err: "-chaos-drop"},
		{name: "drop-nan", drop: math.NaN(), err: "-chaos-drop"},
		{name: "corrupt-above-one", corrupt: 2, err: "-chaos-corrupt"},
		{name: "crash-node-outside-cluster", crash: "9:0:5", err: "-chaos-crash"},
		{name: "crash-node-one-past-the-last", crash: "4:0:5", err: "-chaos-crash"},
		{name: "crash-node-negative", crash: "-1:0:5", err: "-chaos-crash"},
		{name: "crash-empty-window", crash: "1:5:5", err: "-chaos-crash"},
		{name: "crash-reversed-window", crash: "1:8:2", err: "-chaos-crash"},
		{name: "crash-negative-from", crash: "1:-3:2", err: "-chaos-crash"},
		{name: "crash-two-parts", crash: "1:5", err: "-chaos-crash"},
		{name: "crash-not-a-number", crash: "1:a:5", err: "-chaos-crash"},
		{name: "second-window-checked", crash: "1:0:5,9:0:5", err: "-chaos-crash"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := chaosConfig(tc.drop, tc.corrupt, 7, tc.crash, nodes, tc.force)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want one naming %s", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestParseKillPS(t *testing.T) {
	cases := []struct {
		in          string
		epoch, rng  int
		ok          bool
		servers     int
		description string
	}{
		{"8:1", 8, 1, true, 2, "the CI kill"},
		{"0:0", 0, 0, true, 1, "first epoch, only range"},
		{"8:2", 0, 0, false, 2, "range past the servers"},
		{"-1:0", 0, 0, false, 2, "negative epoch"},
		{"8:-1", 0, 0, false, 2, "negative range"},
		{"8", 0, 0, false, 2, "no range"},
		{"a:1", 0, 0, false, 2, "epoch not a number"},
		{"8:1:2", 0, 0, false, 2, "too many parts"},
	}
	for _, tc := range cases {
		epoch, rng, err := parseKillPS(tc.in, tc.servers)
		if !tc.ok {
			if err == nil || !strings.Contains(err.Error(), "-kill-ps") {
				t.Errorf("%s (%q): err = %v, want one naming -kill-ps", tc.description, tc.in, err)
			}
			continue
		}
		if err != nil || epoch != tc.epoch || rng != tc.rng {
			t.Errorf("%s (%q) = %d, %d, %v; want %d, %d", tc.description, tc.in, epoch, rng, err, tc.epoch, tc.rng)
		}
	}
}

func TestParseAnnounce(t *testing.T) {
	cases := []struct {
		in   string
		addr string
		node int
		join bool
		ok   bool
	}{
		{"join:3@127.0.0.1:40123", "127.0.0.1:40123", 3, true, true},
		{"drain:1@localhost:9000", "localhost:9000", 1, false, true},
		{"join:3", "", 0, false, false},
		{"join@127.0.0.1:1", "", 0, false, false},
		{"leave:3@127.0.0.1:1", "", 0, false, false},
		{"join:-1@127.0.0.1:1", "", 0, false, false},
		{"join:x@127.0.0.1:1", "", 0, false, false},
		{"join:3@", "", 0, false, false},
	}
	for _, tc := range cases {
		addr, node, join, err := parseAnnounce(tc.in)
		if !tc.ok {
			if err == nil || !strings.Contains(err.Error(), "-announce") {
				t.Errorf("%q: err = %v, want one naming -announce", tc.in, err)
			}
			continue
		}
		if err != nil || addr != tc.addr || node != tc.node || join != tc.join {
			t.Errorf("%q = %q, %d, %v, %v; want %q, %d, %v", tc.in, addr, node, join, err, tc.addr, tc.node, tc.join)
		}
	}
}

func TestHiddenDims(t *testing.T) {
	if dims, err := hiddenDims(32, 3); err != nil || !reflect.DeepEqual(dims, []int{32, 32}) {
		t.Fatalf("hiddenDims(32, 3) = %v, %v", dims, err)
	}
	for _, tc := range []struct {
		hidden, layers int
		flag           string
	}{{0, 2, "-hidden"}, {-1, 2, "-hidden"}, {16, 1, "-layers"}} {
		if _, err := hiddenDims(tc.hidden, tc.layers); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("hiddenDims(%d, %d): err = %v, want one naming %s", tc.hidden, tc.layers, err, tc.flag)
		}
	}
}
