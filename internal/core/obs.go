package core

import (
	"ecgraph/internal/obs"
	"ecgraph/internal/supervise"
	"ecgraph/internal/worker"
)

// engineObs holds the engine-level telemetry handles. With no registry all
// handles are nil and every update is a no-op (the obs package guarantees
// nil-receiver safety), so an uninstrumented run pays nothing.
//
// Families:
//
//	ecgraph_train_epoch                  last completed epoch index
//	ecgraph_train_loss                   global training loss, last epoch
//	ecgraph_train_val_accuracy           validation accuracy, last epoch
//	ecgraph_train_test_accuracy          test accuracy, last epoch
//	ecgraph_train_compute_seconds_total  per-machine compute (virtual-clock model)
//	ecgraph_train_comm_seconds_total     simulated network time (slowest node)
//	ecgraph_train_sim_seconds_total      compute + comm
//	ecgraph_train_bytes_total            bytes moved across all links
//	ecgraph_train_messages_total         round trips initiated
type engineObs struct {
	epoch   *obs.Gauge
	loss    *obs.Gauge
	valAcc  *obs.Gauge
	testAcc *obs.Gauge

	compute  *obs.Counter
	comm     *obs.Counter
	sim      *obs.Counter
	bytes    *obs.Counter
	messages *obs.Counter
}

func newEngineObs(reg *obs.Registry) engineObs {
	return engineObs{
		epoch:   reg.Gauge("ecgraph_train_epoch", "Last completed epoch index."),
		loss:    reg.Gauge("ecgraph_train_loss", "Global training loss at the last completed epoch."),
		valAcc:  reg.Gauge("ecgraph_train_val_accuracy", "Validation accuracy at the last completed epoch."),
		testAcc: reg.Gauge("ecgraph_train_test_accuracy", "Test accuracy at the last completed epoch."),
		compute: reg.Counter("ecgraph_train_compute_seconds_total",
			"Per-machine compute seconds summed over completed epochs (virtual-clock model)."),
		comm: reg.Counter("ecgraph_train_comm_seconds_total",
			"Simulated network seconds (slowest node) summed over completed epochs."),
		sim: reg.Counter("ecgraph_train_sim_seconds_total",
			"Simulated epoch seconds (compute + comm) summed over completed epochs."),
		bytes: reg.Counter("ecgraph_train_bytes_total",
			"Bytes moved across all links, summed over completed epochs."),
		messages: reg.Counter("ecgraph_train_messages_total",
			"Round trips initiated, summed over completed epochs."),
	}
}

// observeEpoch folds one successful epoch into the engine metrics.
func (o *engineObs) observeEpoch(t int, s *EpochStats) {
	o.epoch.Set(float64(t))
	o.loss.Set(s.Loss)
	o.valAcc.Set(s.ValAcc)
	o.testAcc.Set(s.TestAcc)
	o.compute.Add(s.ComputeSeconds)
	o.comm.Add(s.CommSeconds)
	o.sim.Add(s.SimSeconds)
	o.bytes.Add(float64(s.Bytes))
	o.messages.Add(float64(s.Messages))
}

// EpochEventSchema identifies the epoch event-log record layout; bump the
// suffix on breaking changes so downstream parsers can dispatch.
const EpochEventSchema = "ecgraph.epoch.v1"

// EpochEvent is one line of the JSONL epoch event log (Config.Events): the
// state of one worker after one successfully completed epoch. An epoch with
// W workers emits W records, each the epoch's header — index, membership
// view, training signal and compute time, identical across its records —
// followed by that worker's own record (worker.EpochReport: traffic, EC
// codec and overlap bookkeeping). Cluster-level supervision events land on
// the worker-0 record of the epoch they were observed in.
type EpochEvent struct {
	Schema string `json:"schema"`
	Epoch  int    `json:"epoch"`

	// Membership view the epoch ran under (generation 0 and the boot roster
	// on non-elastic runs).
	ViewGen       int `json:"view_gen"`
	ActiveWorkers int `json:"active_workers"`

	Loss    float64 `json:"loss"`
	ValAcc  float64 `json:"val_acc"`
	TestAcc float64 `json:"test_acc"`
	// ComputeSeconds is the virtual clock's per-machine compute (wall /
	// workers); the record's comm_seconds is this worker's own link time.
	ComputeSeconds float64 `json:"compute_seconds"`

	worker.EpochReport

	// Supervision and membership-log events observed since the previous
	// record was emitted (rendered strings; first record of the epoch only).
	Supervise []string `json:"supervise,omitempty"`
	// Membership summarises the view transitions installed since the
	// previous record (first record of the epoch only).
	Membership []MembershipEvent `json:"membership,omitempty"`
}

// emitEpochEvents writes one EpochEvent per report of a completed epoch;
// supEvents are the supervision/membership log entries and memEvents the
// installed view transitions new since the last emission.
func emitEpochEvents(log *obs.EventLog, t int, stats *EpochStats, reports []worker.EpochReport,
	supEvents []supervise.Event, memEvents []MembershipEvent) {
	if log == nil {
		return
	}
	var supStrs []string
	for _, ev := range supEvents {
		supStrs = append(supStrs, ev.String())
	}
	for i, r := range reports {
		ev := EpochEvent{
			Schema:         EpochEventSchema,
			Epoch:          t,
			ViewGen:        stats.ViewGen,
			ActiveWorkers:  stats.ActiveWorkers,
			Loss:           stats.Loss,
			ValAcc:         stats.ValAcc,
			TestAcc:        stats.TestAcc,
			ComputeSeconds: stats.ComputeSeconds,
			EpochReport:    r,
		}
		if i == 0 {
			ev.Supervise, ev.Membership = supStrs, memEvents
		}
		log.Emit(ev)
	}
}
