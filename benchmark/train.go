package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"ecgraph/internal/core"
	"ecgraph/internal/datasets"
	"ecgraph/internal/nn"
	"ecgraph/internal/obs"
	"ecgraph/internal/ps"
	"ecgraph/internal/transport"
	"ecgraph/internal/worker"
)

// trainProbes are the outside-in probes of a traced training run. The zero
// value is not usable; an untraced run passes nil.
type trainProbes struct {
	meter  *meternet
	rec    *spanRecorder
	base   time.Time    // the tracer's time zero
	events bytes.Buffer // the program's own JSONL epoch events

	// Counters at the first and last hook of the timed window.
	meterAt [2]meterSnap
	linkAt  [2][]linkAcct
	memAt   [2]runtime.MemStats
}

// trainRun is what one call of core.Train looked like from outside.
type trainRun struct {
	cfg    core.Config
	res    *core.Result
	epochs int // epochs run: warm-up + timed + one to close the window
	timed  int
	// hooks[t] is the instant epoch t began (Config.EpochHook); the timed
	// window is hooks[warmEpochs] … hooks[warmEpochs+timed].
	hooks    []time.Time
	returned time.Time
}

// epochMS returns epoch t's wall-clock, hook to hook: workers, evaluation
// and the engine's bookkeeping included.
func (r *trainRun) epochMS(t int) float64 {
	return r.hooks[t+1].Sub(r.hooks[t]).Seconds() * 1e3
}

// timedEpochs lists the epochs of the timed window.
func (r *trainRun) timedEpochs() []int {
	out := make([]int, r.timed)
	for i := range out {
		out[i] = warmEpochs + i
	}
	return out
}

// groupMeans cuts the timed window into trend groups — Ttr consecutive
// epochs, of which exactly one is an exact-sync epoch — and returns each
// group's mean epoch time. Their quiet quartile is the reported epoch time:
// every group weighs sync and steady epochs as the run does, and a slow
// spell of the machine costs the groups it falls into and no others. A
// window shorter than a group is one group.
func (r *trainRun) groupMeans() []float64 {
	k := r.timed / ttr
	if k < 1 {
		k = 1
	}
	means := make([]float64, k)
	for g := range means {
		lo, hi := warmEpochs+g*r.timed/k, warmEpochs+(g+1)*r.timed/k
		means[g] = r.hooks[hi].Sub(r.hooks[lo]).Seconds() * 1e3 / float64(hi-lo)
	}
	return means
}

// windowMS is the timed window's wall-clock.
func (r *trainRun) windowMS() float64 {
	return r.hooks[warmEpochs+r.timed].Sub(r.hooks[warmEpochs]).Seconds() * 1e3
}

// modelDims returns [features, hidden..., classes].
func modelDims(w workload, d *datasets.Dataset) []int {
	dims := append([]int{d.NumFeatures()}, w.Hidden...)
	return append(dims, d.NumClasses)
}

// runTrain trains w on d through core.Train over the emulated link with the
// CLI's default worker options. timed is the length of the timed window; a
// run of timed = 0 is a set-up repetition: core.Train cannot stop before its
// first epoch, so it runs that one and no more.
func runTrain(w workload, d *datasets.Dataset, seed int64, timed int, probes *trainProbes) (*trainRun, error) {
	nodes := w.Workers + paramServers
	inner := newLinknet(transport.NewInProc(nodes), nodes, w.Bits)
	var base transport.Network = inner
	if probes != nil {
		probes.meter = newMeternet(inner, ps.MethodPush)
		base = probes.meter
	}
	// The CLI's stack: bounded fan-out of 4 over the (here: emulated) wire.
	stack := transport.NewStack(base, transport.WithConcurrency(4), transport.WithNodes(nodes))
	defer stack.Close()

	run := &trainRun{timed: timed}
	run.epochs = 1
	if timed > 0 {
		run.epochs = warmEpochs + timed + 1 // the last one's hook closes the window
	}
	run.cfg = core.Config{
		Dataset:     d,
		Kind:        nn.KindGCN,
		Hidden:      w.Hidden,
		Workers:     w.Workers,
		Servers:     paramServers,
		Partitioner: w.Partitioner,
		Epochs:      run.epochs,
		LR:          0.01,
		Seed:        1 + seed,
		Net:         stack,
		// The simulated clock uses the same link the wall-clock one emulates.
		Cost: transport.CostModel{LatencySec: linkRTT.Seconds(), BandwidthBytesPerSec: w.Bits / 8},
		Worker: worker.Options{
			FPScheme: w.Scheme, BPScheme: w.Scheme,
			FPBits: w.QuantBits, BPBits: w.QuantBits,
			Ttr: ttr, Overlap: true, PackedSpMM: true,
		},
	}
	run.cfg.EpochHook = func(t int) {
		run.hooks = append(run.hooks, time.Now())
		if probes == nil || timed == 0 {
			return
		}
		var edge int
		switch t {
		case warmEpochs:
			edge = 0
		case warmEpochs + timed:
			edge = 1
		default:
			return
		}
		probes.meterAt[edge] = probes.meter.snapshot()
		probes.linkAt[edge] = inner.link.snapshot()
		runtime.ReadMemStats(&probes.memAt[edge])
	}
	if probes != nil {
		probes.rec = &spanRecorder{}
		probes.base = time.Now()
		run.cfg.Tracer = obs.NewTracer(probes.rec)
		run.cfg.Events = obs.NewEventLog(&probes.events)
	}

	res, err := core.Train(run.cfg)
	run.returned = time.Now()
	if err != nil {
		return nil, fmt.Errorf("core.Train: %w", err)
	}
	if len(res.Epochs) != run.epochs || len(run.hooks) != run.epochs {
		return nil, fmt.Errorf("core.Train ran %d epochs and %d hooks, want %d", len(res.Epochs), len(run.hooks), run.epochs)
	}
	run.res = res
	// The network's handlers hold every worker and its matrices. Nothing
	// below needs them, and kept alive they are a few hundred megabytes the
	// collector has to mark again and again while the serving phase runs.
	run.cfg.Net, run.cfg.EpochHook = nil, nil
	return run, nil
}

// failedEpochs counts the epochs that count as failed operations: a loss
// that is not finite, or a ghost fetch served degraded.
func (r *trainRun) failedEpochs() int {
	n := 0
	for _, e := range r.res.Epochs {
		if math.IsNaN(e.Loss) || math.IsInf(e.Loss, 0) || e.DegradedFetches > 0 {
			n++
		}
	}
	return n
}

// epochsToTarget is the first epoch whose validation accuracy reaches
// target, −1 if none does.
func (r *trainRun) epochsToTarget(target float64) int {
	for t, e := range r.res.Epochs {
		if e.ValAcc >= target {
			return t
		}
	}
	return -1
}

// checksum fingerprints the run: FNV-1a over every epoch's loss bits and
// the final parameters' bits. The same seed and length give the same value
// on any machine for as long as the arithmetic is left alone.
func (r *trainRun) checksum() uint64 {
	h := fnv.New64a()
	r.hashLosses(h, r.epochs)
	var b [4]byte
	for _, p := range r.res.FinalParams {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(p))
		h.Write(b[:])
	}
	return h.Sum64()
}

// lossChecksum fingerprints the first n epochs only, to compare runs of
// different lengths over their common prefix.
func (r *trainRun) lossChecksum(n int) uint64 {
	h := fnv.New64a()
	r.hashLosses(h, n)
	return h.Sum64()
}

func (r *trainRun) hashLosses(h hash.Hash64, n int) {
	var b [8]byte
	for _, e := range r.res.Epochs[:n] {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(e.Loss))
		h.Write(b[:])
	}
}

// fullGraph trains the same initial model on one machine for epochs epochs
// and returns the result and the mean epoch wall-clock.
func fullGraph(w workload, d *datasets.Dataset, seed int64, epochs int) (*nn.TrainResult, float64) {
	model := nn.NewModel(nn.KindGCN, modelDims(w, d), 1+seed)
	start := time.Now()
	res := nn.TrainFullGraph(model, d, epochs, 0.01)
	return res, time.Since(start).Seconds() * 1e3 / float64(epochs)
}

// fullGraphEpochs is how many leading losses are compared.
const fullGraphEpochs = 10

// checkAgainstFullGraph requires the distributed losses to follow the
// single-machine ones within 1e-3 relative.
func (r *trainRun) checkAgainstFullGraph(ref *nn.TrainResult) error {
	for t, want := range ref.LossHistory {
		if t >= len(r.res.Epochs) {
			break
		}
		got := r.res.Epochs[t].Loss
		if math.Abs(got-want) > 1e-3*math.Abs(want) {
			return fmt.Errorf("epoch %d loss %.6f, full-graph training has %.6f", t, got, want)
		}
	}
	return nil
}
