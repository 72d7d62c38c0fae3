// Package cliconf is the shared flag/config surface of the EC-Graph CLIs.
// ecgraph-train, ecgraph-serve, ecgraph-infer, ecgraph-partition and
// ecgraph-bench register the flags they have in common through one
// builder — same names, same help text, same validation — so the binaries
// cannot drift apart, and a main() shrinks to parse → Build → run.
//
// Flags are grouped (dataset selection, cluster shape, supervision,
// parameter-server tier, telemetry, profiling); each CLI opts into the
// groups it supports and keeps its genuinely private flags local.
package cliconf

import (
	"flag"
	"fmt"
	"net/http"
	"strings"
	"time"

	"ecgraph/internal/datasets"
	"ecgraph/internal/obs"
	"ecgraph/internal/profile"
	"ecgraph/internal/supervise"
	"ecgraph/internal/tensor"
)

// Groups selects which shared flag groups Register installs.
type Groups uint

const (
	// Data registers -dataset (preset selection).
	Data Groups = 1 << iota
	// Files registers -edges/-vertices (custom graph files, an
	// alternative to -dataset where the CLI supports it).
	Files
	// Cluster registers -workers, -servers, -epochs and -net-concurrency.
	Cluster
	// Supervision registers -supervise, -heartbeat and -auto-rollback.
	Supervision
	// PS registers -ps-replicas and -ps-failover.
	PS
	// Obs registers -metrics-addr and -events-out.
	Obs
	// Profile registers -cpuprofile and -memprofile.
	Profile

	// All is every shared group.
	All = Data | Files | Cluster | Supervision | PS | Obs | Profile
)

// Defaults carries the per-CLI defaults for shared flags (the server wants
// its endpoint on by default; the CLIs without a cluster leave its shape
// zero).
type Defaults struct {
	Dataset     string
	Workers     int
	Servers     int
	Epochs      int
	MetricsAddr string
}

// Common holds the parsed values of the shared flags. Fields of groups the
// CLI did not register keep their zero values.
type Common struct {
	groups Groups

	Dataset  string
	Edges    string
	Vertices string

	Workers     int
	Servers     int
	Epochs      int
	Concurrency int

	Supervise    bool
	Heartbeat    time.Duration
	AutoRollback bool

	PSReplicas int
	PSFailover bool

	MetricsAddr string
	EventsOut   string

	CPUProfile string
	MemProfile string
}

// Register installs the selected shared flag groups on fs with the given
// defaults and returns the value holder, populated once fs is parsed.
func Register(fs *flag.FlagSet, d Defaults, groups Groups) *Common {
	c := &Common{groups: groups}
	if groups&Data != 0 {
		fs.StringVar(&c.Dataset, "dataset", d.Dataset,
			"dataset preset: "+strings.Join(datasets.PresetNames(), ", "))
	}
	if groups&Files != 0 {
		fs.StringVar(&c.Edges, "edges", "", "edge-list file (with -vertices, instead of -dataset)")
		fs.StringVar(&c.Vertices, "vertices", "", "vertex file: label + features per line")
	}
	if groups&Cluster != 0 {
		fs.IntVar(&c.Workers, "workers", d.Workers, "number of workers")
		fs.IntVar(&c.Servers, "servers", d.Servers, "number of parameter servers")
		fs.IntVar(&c.Epochs, "epochs", d.Epochs, "training epochs")
		fs.IntVar(&c.Concurrency, "net-concurrency", 4,
			"max in-flight ghost-exchange calls per worker (1 = sequential)")
	}
	if groups&Supervision != 0 {
		fs.BoolVar(&c.Supervise, "supervise", false,
			"enable heartbeat failure detection, automatic worker recovery and straggler tolerance")
		fs.DurationVar(&c.Heartbeat, "heartbeat", 25*time.Millisecond,
			"heartbeat interval between workers and the monitor (with -supervise); a worker silent for 5 intervals is suspect, for 15 dead")
		fs.BoolVar(&c.AutoRollback, "auto-rollback", false,
			"roll back to the latest checkpoint and replay when recovery fails or a numeric guard trips (implies -supervise)")
	}
	if groups&PS != 0 {
		fs.IntVar(&c.PSReplicas, "ps-replicas", 0,
			"hot-standby replicas per parameter-server range (0 or 1); each backup gets its own node")
		fs.BoolVar(&c.PSFailover, "ps-failover", false,
			"promote a range's backup when its primary dies, re-electing the monitor if needed (requires -supervise and -ps-replicas 1)")
	}
	if groups&Obs != 0 {
		fs.StringVar(&c.MetricsAddr, "metrics-addr", d.MetricsAddr,
			"serve Prometheus /metrics and /debug/pprof on this address (e.g. :9090 or :0; host defaults to 127.0.0.1)")
		fs.StringVar(&c.EventsOut, "events-out", "",
			"append one JSONL epoch event per worker per epoch to this file")
	}
	if groups&Profile != 0 {
		fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
		fs.StringVar(&c.MemProfile, "memprofile", "", "write a pprof heap profile at exit to this file")
	}
	return c
}

// Validate applies the constraints of the registered groups, each error
// naming the flag it rejects.
func (c *Common) Validate() error {
	if c.groups&Cluster != 0 {
		for _, f := range []struct {
			name string
			v    int
		}{{"-workers", c.Workers}, {"-servers", c.Servers}, {"-epochs", c.Epochs}} {
			if f.v < 1 {
				return fmt.Errorf("%s must be at least 1, got %d", f.name, f.v)
			}
		}
	}
	if c.groups&PS != 0 {
		if c.PSReplicas < 0 || c.PSReplicas > 1 {
			return fmt.Errorf("-ps-replicas must be 0 or 1")
		}
		if c.PSFailover && !c.Supervise && !c.AutoRollback {
			return fmt.Errorf("-ps-failover requires -supervise (PS death detection lives in the supervisor)")
		}
		if c.PSFailover && c.PSReplicas < 1 {
			return fmt.Errorf("-ps-failover requires -ps-replicas 1 (promotion needs a backup)")
		}
	}
	return nil
}

// LoadDataset loads the selected dataset: the preset, or the custom files
// when the Files group is registered and both paths were given.
func (c *Common) LoadDataset() (*datasets.Dataset, error) {
	switch {
	case c.Edges != "" && c.Vertices != "":
		return datasets.LoadFiles("custom", c.Edges, c.Vertices, 0, 0)
	case c.Edges != "" || c.Vertices != "":
		return nil, fmt.Errorf("-edges and -vertices must be given together")
	case c.Dataset != "":
		return datasets.Load(c.Dataset)
	case c.groups&Files != 0:
		return nil, fmt.Errorf("need -dataset or both -edges and -vertices")
	default:
		return nil, fmt.Errorf("need -dataset")
	}
}

// SuperviseOptions builds the supervision options, nil when supervision is
// off (-auto-rollback implies it, matching the engine's contract).
func (c *Common) SuperviseOptions() *supervise.Options {
	if !c.Supervise && !c.AutoRollback {
		return nil
	}
	return &supervise.Options{HeartbeatInterval: c.Heartbeat, AutoRollback: c.AutoRollback}
}

// StartProfiles starts the pprof profiles the Profile flags ask for; the
// returned stop must run once before exit.
func (c *Common) StartProfiles() (stop func(), err error) {
	return profile.Start(c.CPUProfile, c.MemProfile)
}

// Telemetry is the running observability surface a CLI builds from its
// shared flags: the registry feeding every subsystem's instruments, the
// HTTP server exposing them, and the epoch event log.
type Telemetry struct {
	Registry *obs.Registry // nil when -metrics-addr is unset
	Server   *obs.Server   // nil when -metrics-addr is unset
	Events   *obs.EventLog // nil when -events-out is unset
}

// Close releases the telemetry resources (safe on nil members).
func (t *Telemetry) Close() {
	if t == nil {
		return
	}
	if t.Server != nil {
		_ = t.Server.Close()
	}
	if t.Events != nil {
		_ = t.Events.Close()
	}
}

// StartTelemetry starts the metrics endpoint and event log per the parsed
// flags. mount, when non-nil, adds application routes (the serving front
// door) to the metrics server's mux before it starts listening.
func (c *Common) StartTelemetry(mount func(*http.ServeMux)) (*Telemetry, error) {
	return c.StartTelemetryWith(nil, mount)
}

// StartTelemetryWith is StartTelemetry with a caller-built registry, for a
// CLI that must wire its instruments (and the routes that expose them)
// before the listener starts accepting — ecgraph-serve builds the service
// against the registry first, then mounts it here. A nil reg builds one.
func (c *Common) StartTelemetryWith(reg *obs.Registry, mount func(*http.ServeMux)) (*Telemetry, error) {
	t := &Telemetry{}
	if c.MetricsAddr != "" {
		t.Registry = reg
		if t.Registry == nil {
			t.Registry = obs.NewRegistry()
		}
		t.Registry.BuildInfo(tensor.Kernel())
		srv, err := obs.ServeWith(c.MetricsAddr, t.Registry, mount)
		if err != nil {
			return nil, err
		}
		t.Server = srv
		fmt.Printf("metrics and pprof on http://%s\n", srv.Addr())
	}
	if c.EventsOut != "" {
		events, err := obs.OpenEventLog(c.EventsOut)
		if err != nil {
			t.Close()
			return nil, err
		}
		t.Events = events
	}
	return t, nil
}
