package main

import (
	"fmt"
	"time"

	"ecgraph/internal/datasets"
	"ecgraph/internal/partition"
	"ecgraph/internal/worker"
)

// nominalSeconds is the run length the epoch counts and load durations
// below are written for (BENCHMARK.json's run_seconds); -seconds scales
// them. Lengths are counts, not deadlines, so that a seed's epochs, bytes
// and accuracy are the same on any machine.
const nominalSeconds = 20

// warmEpochs run before the timed window: caches fill, the first ReqEC-FP
// trend group completes its set-up and the allocator reaches steady state.
const warmEpochs = 5

// setupReps is how often a run sets up, to report the median.
const setupReps = 3

// step is one rate of the open-loop ladder.
type step struct {
	Rate    float64 // requests per second
	Seconds float64
}

// workload is one set of inputs. Every workload runs the same pipeline —
// train over the emulated link, then serve the model it trained — and they
// differ in where the time goes.
type workload struct {
	Name string
	Why  string

	Preset string  // datasets preset the shape is taken from
	Scale  int     // vertex-count multiplier
	Hidden []int   // hidden widths of the GCN
	Bits   float64 // link speed, bits per second

	Workers     int
	Partitioner partition.Partitioner
	Scheme      worker.Scheme // both directions
	QuantBits   int

	TimedEpochs int // at nominalSeconds
	// Target is the validation accuracy the run must reach at some epoch, and
	// AccFloor the test accuracy it must end above. Both catch training that
	// is broken, not training that is slow: over thirty seeds the 320-vertex
	// validation set first shows a given accuracy anywhere between a third
	// and five sixths of the way through a run, and its best value moves by
	// 0.08, so each limit sits several standard errors under the lowest value
	// any of those seeds gave (the README has the sweep).
	Target   float64
	AccFloor float64
	// FullGraphCheck compares the first losses with single-machine
	// nn.TrainFullGraph; it holds only where the exchange is exact (raw).
	FullGraphCheck bool

	Ladder      []step  // open loop, 4-vertex requests, steady state
	Swap        step    // open loop again, with a hot swap a third of the way in
	BulkSeconds float64 // closed loop, bulkClients × bulkVertices-vertex requests
}

// servers, Ttr and the serving shape are the CLI defaults everywhere.
const (
	paramServers = 2
	ttr          = 10
	serveShards  = 2
	reqVertices  = 4
	// Four closed-loop clients keep the service's two in-flight batch rounds
	// busy with one request waiting behind each. With two, throughput
	// depends on whether the clients happen to run in step (both rounds
	// compute at once, then both wait on the wire) or out of step, and a run
	// lands in either mode.
	bulkClients  = 4
	bulkVertices = 256
	// The one serving setting that is not the CLI's default (256 requests):
	// two seconds of the highest ladder rate. A shared machine stalls a
	// process for a few hundred milliseconds now and then; with the default
	// depth such a stall overflows the queue at 2000 req/s and the run
	// reports refused requests that the program did not cause (one run in
	// 360 did). With this depth the stall is charged as latency from the due
	// instant, where the windowed tail absorbs it; a service too slow for its
	// load still fills the queue and is refused.
	admissionDepth = 4096
	sloP99         = 10 * time.Millisecond
	// A step whose generator ran later than this at p99 measured the
	// generator. time.Sleep on a busy two-core machine wakes 1–2 ms late at
	// p99, which latency from the due instant already includes; half the
	// latency limit leaves that room and still catches a starved generator.
	sloLateP99 = 5 * time.Millisecond
)

// shortLadder is the serving phase of the training workloads: five windows
// of a thousand samples at the reported rate and three at the highest, so
// that the tails are taken over windows, and otherwise short enough to leave
// the run to training.
var shortLadder = []step{{250, 1}, {1000, 5}, {2000, 1.5}}

// reportStep indexes the ladder step whose latency is the end-to-end one.
const reportStep = 1

var workloads = []workload{
	{
		Name:   "train-wire",
		Why:    "100 Mb/s link, EC 2-bit, products-shape x2 on 4 workers: wire-bound, so bytes, RPC count, fan-out and overlap decide the epoch and kernels do little",
		Preset: "ogbn-products", Scale: 2, Hidden: []int{16}, Bits: 100e6,
		Workers: 4, Partitioner: partition.Hash{}, Scheme: worker.SchemeEC, QuantBits: 2,
		TimedEpochs: 100, Target: 0.75, AccFloor: 0.82,
		Ladder: shortLadder, Swap: step{250, 0.8}, BulkSeconds: 1.2,
	},
	{
		Name:   "train-fold",
		Why:    "1 Gb/s link, EC 2-bit, reddit-shape x3 (degree 120): the same exchange with a cheap wire and dear CPU, so the packed ghost fold and owned SpMM decide the epoch",
		Preset: "reddit", Scale: 3, Hidden: []int{16}, Bits: 1e9,
		Workers: 4, Partitioner: partition.Hash{}, Scheme: worker.SchemeEC, QuantBits: 2,
		TimedEpochs: 100, Target: 0.85, AccFloor: 0.88,
		Ladder: shortLadder, Swap: step{250, 0.8}, BulkSeconds: 1.2,
	},
	{
		Name:   "train-dense",
		Why:    "raw exchange, 3-layer 64-wide GCN on cora-shape x8, one worker per core, METIS: compute-bound control that bypasses compress and ec, so codec work must not move it",
		Preset: "cora", Scale: 8, Hidden: []int{64, 64}, Bits: 1e9,
		Workers: 2, Partitioner: partition.Metis{}, Scheme: worker.SchemeRaw, QuantBits: 2,
		TimedEpochs: 30, Target: 0.80, AccFloor: 0.82, FullGraphCheck: true,
		Ladder: shortLadder, Swap: step{250, 0.8}, BulkSeconds: 1.2,
	},
	{
		Name:   "serve-online",
		Why:    "short training, then the long serving phase: open-loop 250/1000/2000 req/s with a hot swap, then closed-loop bulk scoring; batch window, shard compute and ghost cache decide",
		Preset: "ogbn-products", Scale: 2, Hidden: []int{64}, Bits: 1e9,
		Workers: 4, Partitioner: partition.Hash{}, Scheme: worker.SchemeEC, QuantBits: 2,
		TimedEpochs: 40, Target: 0.75, AccFloor: 0.82,
		Ladder: []step{{250, 4}, {1000, 5}, {2000, 2}}, Swap: step{250, 2}, BulkSeconds: 2.5,
	},
}

// smokeWorkload is the -smoke path and the unit tests' end-to-end check: a
// tiny graph, three timed epochs and half a second of load through every
// probe. It asserts nothing about quality.
var smokeWorkload = workload{
	Name: "smoke", Why: "exercises every probe in a few seconds",
	Preset: "cora", Scale: 1, Hidden: []int{16}, Bits: 1e9,
	Workers: 2, Partitioner: partition.Hash{}, Scheme: worker.SchemeEC, QuantBits: 2,
	TimedEpochs: 3, Target: 0, AccFloor: 0,
	Ladder: []step{{200, 0.1}, {400, 0.15}, {800, 0.1}}, Swap: step{400, 0.15}, BulkSeconds: 0.1,
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns w with its lengths multiplied by seconds/nominalSeconds.
// The timed window stays a whole number of trend groups so that every run
// holds the same share of exact-sync epochs.
func (w workload) scaled(seconds float64) workload {
	f := seconds / nominalSeconds
	w.TimedEpochs = roundToTtr(float64(w.TimedEpochs) * f)
	w.Ladder = append([]step(nil), w.Ladder...)
	for i := range w.Ladder {
		w.Ladder[i].Seconds *= f
	}
	w.Swap.Seconds *= f
	w.BulkSeconds *= f
	return w
}

func roundToTtr(epochs float64) int {
	n := int(epochs/ttr+0.5) * ttr
	if n < ttr {
		n = ttr
	}
	return n
}

// dataset generates the workload's graph for a seed.
func (w workload) dataset(seed int64) (*datasets.Dataset, error) {
	cfg, err := datasets.PresetConfig(w.Preset)
	if err != nil {
		return nil, err
	}
	cfg.N *= w.Scale
	cfg.Seed += seed
	cfg.Name = fmt.Sprintf("%s-x%d", w.Preset, w.Scale)
	return datasets.Generate(cfg), nil
}
