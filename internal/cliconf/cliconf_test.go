package cliconf

import (
	"flag"
	"net/http"
	"strings"
	"testing"
	"time"
)

func newFS(t *testing.T) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	return fs
}

func TestRegisterGroupsAreSelective(t *testing.T) {
	fs := newFS(t)
	Register(fs, Defaults{Dataset: "cora", Workers: 4, Servers: 2, Epochs: 60}, Data|Cluster)
	if fs.Lookup("dataset") == nil || fs.Lookup("workers") == nil {
		t.Fatal("registered groups must install their flags")
	}
	for _, name := range []string{"edges", "supervise", "ps-replicas", "metrics-addr", "cpuprofile"} {
		if fs.Lookup(name) != nil {
			t.Fatalf("unselected group's flag %q must not be registered", name)
		}
	}
}

func TestDefaultsFlowThrough(t *testing.T) {
	fs := newFS(t)
	c := Register(fs, Defaults{Dataset: "cora", Workers: 3, Servers: 1, Epochs: 20}, All)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Dataset != "cora" || c.Workers != 3 || c.Servers != 1 || c.Epochs != 20 {
		t.Fatalf("defaults did not flow through: %+v", c)
	}
	if c.Concurrency != 4 || c.Heartbeat != 25*time.Millisecond {
		t.Fatalf("fixed defaults wrong: %+v", c)
	}
}

func TestParseOverrides(t *testing.T) {
	fs := newFS(t)
	c := Register(fs, Defaults{Dataset: "cora", Workers: 4, Servers: 2, Epochs: 60}, All)
	args := []string{
		"-dataset", "citeseer", "-workers", "8", "-supervise",
		"-ps-replicas", "1", "-ps-failover", "-metrics-addr", ":0",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if c.Dataset != "citeseer" || c.Workers != 8 || !c.Supervise || c.PSReplicas != 1 || !c.PSFailover {
		t.Fatalf("overrides did not parse: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("valid combination rejected: %v", err)
	}
}

func TestValidateRejectsBadPSCombos(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"replicas-out-of-range", []string{"-ps-replicas", "2"}, "-ps-replicas"},
		{"failover-without-supervise", []string{"-ps-replicas", "1", "-ps-failover"}, "-supervise"},
		{"failover-without-replica", []string{"-supervise", "-ps-failover"}, "-ps-replicas 1"},
		// A zero cluster shape is an error, not the engine's silent default.
		{"zero-workers", []string{"-workers", "0"}, "-workers"},
		{"zero-servers", []string{"-servers", "0"}, "-servers"},
		{"zero-epochs", []string{"-epochs", "0"}, "-epochs"},
		{"negative-workers", []string{"-workers", "-2"}, "-workers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := newFS(t)
			c := Register(fs, Defaults{Dataset: "cora", Workers: 2, Servers: 1, Epochs: 1}, All)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			err := c.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error mentioning %q", err, tc.want)
			}
		})
	}
}

func TestLoadDatasetPresetAndErrors(t *testing.T) {
	fs := newFS(t)
	c := Register(fs, Defaults{Dataset: "cora"}, Data|Files)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	d, err := c.LoadDataset()
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "cora" || d.Graph.N == 0 {
		t.Fatalf("preset load wrong: %q with %d vertices", d.Name, d.Graph.N)
	}

	fs = newFS(t)
	c = Register(fs, Defaults{}, Data|Files)
	if err := fs.Parse([]string{"-edges", "only-one.txt"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadDataset(); err == nil || !strings.Contains(err.Error(), "together") {
		t.Fatalf("half a custom pair must be rejected, got %v", err)
	}

	fs = newFS(t)
	c = Register(fs, Defaults{}, Data|Files)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadDataset(); err == nil {
		t.Fatal("no dataset selection must error")
	}
}

func TestSuperviseOptions(t *testing.T) {
	fs := newFS(t)
	c := Register(fs, Defaults{Dataset: "cora"}, All)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.SuperviseOptions() != nil {
		t.Fatal("no -supervise/-auto-rollback must yield nil options")
	}

	fs = newFS(t)
	c = Register(fs, Defaults{Dataset: "cora"}, All)
	if err := fs.Parse([]string{"-auto-rollback", "-heartbeat", "10ms"}); err != nil {
		t.Fatal(err)
	}
	opts := c.SuperviseOptions()
	if opts == nil || !opts.AutoRollback || opts.HeartbeatInterval != 10*time.Millisecond {
		t.Fatalf("auto-rollback must imply supervision: %+v", opts)
	}
}

func TestBuildStartsTelemetryAndMounts(t *testing.T) {
	fs := newFS(t)
	c := Register(fs, Defaults{Dataset: "cora"}, Data|Obs)
	if err := fs.Parse([]string{"-metrics-addr", ":0"}); err != nil {
		t.Fatal(err)
	}
	mounted := false
	b, err := c.Build(func(mux *http.ServeMux) {
		mounted = true
		mux.HandleFunc("/v1/ping", func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusNoContent)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Dataset == nil || b.Registry == nil || b.Server == nil {
		t.Fatalf("Build must load the dataset and start telemetry: %+v", b)
	}
	if !mounted {
		t.Fatal("Build must invoke the mount hook")
	}
	resp, err := http.Get("http://" + b.Server.Addr() + "/v1/ping")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("mounted route returned %d", resp.StatusCode)
	}
	resp, err = http.Get("http://" + b.Server.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics returned %d", resp.StatusCode)
	}
}

func TestGracefulRunsClosersOnceLIFO(t *testing.T) {
	g := NewGraceful("test")
	var order []int
	g.Defer(func() { order = append(order, 1) })
	g.Defer(func() { order = append(order, 2) })
	g.Shutdown()
	g.Shutdown()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("closers must run once, LIFO: %v", order)
	}
}
