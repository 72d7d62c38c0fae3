// Supervised training: the engine-side half of the supervision layer.
// internal/supervise owns detection (heartbeats, phi-accrual, probes);
// this file owns reaction — classifying an epoch failure, respawning and
// rehydrating dead workers, resetting error-compensation state behind a
// forced exact-sync round, and rolling back to the latest checkpoint when
// recovery cannot proceed or a numeric guard trips.
//
// Recovery protocol (DESIGN.md §8):
//
//	detect   — the failed epoch's error plus liveness probes identify the
//	           crashed workers; the detector is given up to DeadAfter to
//	           formally declare them dead so the transition is logged.
//	respawn  — a fresh Worker object replaces each dead one and its handler
//	           takes over the node: in-memory EC state, caches and
//	           publication stores are genuinely gone, like a process restart.
//	rehydrate— the respawn refetches ghost features; model parameters come
//	           from the parameter servers on its next pull, whose versions
//	           are read (ps.version) into the run log.
//	exact-sync— compensation state is reset on EVERY worker — not restored:
//	           ReqEC-FP baselines and ResEC-BP residuals describe a
//	           trajectory that no longer exists — and the next forward
//	           round is forced exact, mirroring a scheduled T_tr boundary.
//	retry    — the failed epoch re-runs. Parameter-server pushes are
//	           idempotent per (version, worker), so ranges that completed
//	           the barrier before the crash acknowledge the retry silently.
//	rollback — when a worker stays unreachable past the probe budget, or a
//	           numeric guard fires, the servers are restored from the
//	           latest checkpoint (or the run's initial state) and training
//	           replays from there.
package core

import (
	"fmt"
	"math"
	"time"

	"ecgraph/internal/ps"
	"ecgraph/internal/supervise"
	"ecgraph/internal/transport"
)

// supervisedRun carries the engine-side recovery state across epochs. The
// parameter-server fleet is reached through cl.tier, never a captured
// slice: a failover promotion swaps server objects mid-run, and rollback
// must restore whichever object currently owns each range.
type supervisedRun struct {
	cfg  *Config
	sup  *supervise.Supervisor
	net  transport.Network
	cl   *cluster
	dims []int
	res  *Result

	startEpoch int
	// initState snapshots the servers before the first epoch so a rollback
	// works even when no checkpoint file exists yet; initBest* is the
	// matching best-validation bookkeeping (non-zero on resumed runs).
	initState     []ps.State
	initBestVal   float64
	initBestEpoch int
	initTestBest  float64

	recoveries int  // recovery actions spent against Options.MaxRecoveries
	pending    bool // a recovery happened since the last successful epoch

	// Running loss statistics (Welford) for the spike guard; reset on
	// rollback because the replayed trajectory restarts.
	lossN    int
	lossMean float64
	lossM2   float64
}

func newSupervisedRun(cfg *Config, sup *supervise.Supervisor, net transport.Network,
	cl *cluster, dims []int, startEpoch int, res *Result) *supervisedRun {
	sv := &supervisedRun{
		cfg:           cfg,
		sup:           sup,
		net:           net,
		cl:            cl,
		dims:          dims,
		res:           res,
		startEpoch:    startEpoch,
		initBestVal:   res.BestVal,
		initBestEpoch: res.BestEpoch,
		initTestBest:  res.TestAccuracy,
	}
	for _, srv := range cl.tier.primaries {
		sv.initState = append(sv.initState, srv.Snapshot())
	}
	return sv
}

// guardReason checks the numeric guards against a completed epoch and
// returns a non-empty reason when one fires; nonFinite says a worker found
// a NaN or ±Inf among its logits. Healthy epochs fold their loss into the
// running statistics the spike guard compares against.
func (sv *supervisedRun) guardReason(stats EpochStats, nonFinite bool) string {
	if math.IsNaN(stats.Loss) || math.IsInf(stats.Loss, 0) {
		return fmt.Sprintf("non-finite loss %v", stats.Loss)
	}
	if nonFinite {
		return "non-finite logit"
	}
	if sigma := sv.sup.Options().LossSpikeSigma; sigma > 0 && sv.lossN >= 5 {
		mean := sv.lossMean
		std := math.Sqrt(sv.lossM2 / float64(sv.lossN-1))
		// Floor the deviation so a converged, near-constant loss does not
		// make the guard hair-triggered on numeric noise.
		if floor := 0.05*math.Abs(mean) + 1e-3; std < floor {
			std = floor
		}
		if stats.Loss > mean+sigma*std {
			return fmt.Sprintf("loss %.4f spiked past mean %.4f + %.0fσ (σ=%.4f)", stats.Loss, mean, sigma, std)
		}
	}
	sv.lossN++
	d := stats.Loss - sv.lossMean
	sv.lossMean += d / float64(sv.lossN)
	sv.lossM2 += d * (stats.Loss - sv.lossMean)
	return ""
}

// spendRecovery charges one action against the recovery budget.
func (sv *supervisedRun) spendRecovery(t int, cause string) error {
	sv.recoveries++
	if max := sv.sup.Options().MaxRecoveries; sv.recoveries > max {
		return fmt.Errorf("core: recovery budget (%d) exhausted at epoch %d: %s", max, t, cause)
	}
	sv.pending = true
	return nil
}

// recover reacts to a failed epoch: probe for crashed workers, wait for
// the detector to declare them dead, respawn and rehydrate each once its
// node answers again, reset compensation cluster-wide and retry the same
// epoch. Returns the epoch to run next (t on retry, the checkpoint epoch
// after a rollback) or the terminal error.
func (sv *supervisedRun) recover(t int, cause error) (int, error) {
	opts := sv.sup.Options()
	if err := sv.spendRecovery(t, cause.Error()); err != nil {
		return 0, err
	}
	time.Sleep(opts.RecoveryBackoff)

	// Heal the PS tier before anything else: a dead monitor fails every
	// probe issued from it, so diagnosing the workers first would declare
	// the whole cluster crashed. A clean promotion needs no rollback — the
	// backup holds bitwise-identical state at the handed-over version; a
	// stale backup or a from-scratch respawn cannot carry the trajectory
	// and falls through to rollback-and-replay.
	if rollbackReason, err := sv.cl.tier.recoverPS(t, sv.cl.active[0]); err != nil {
		return 0, err
	} else if rollbackReason != "" {
		if !opts.AutoRollback {
			return 0, fmt.Errorf("core: %s at epoch %d (auto-rollback disabled): %w", rollbackReason, t, cause)
		}
		return sv.rollback(t, rollbackReason)
	}

	// Probe every worker; give crashed ones up to DeadAfter so the
	// suspect→dead transitions accrue and land in the run log before
	// recovery acts. A window that heals mid-wait empties the crashed set
	// and downgrades this recovery to a plain retry.
	crashed := sv.probeAll()
	if len(crashed) > 0 {
		settle := time.Now().Add(opts.DeadAfter + opts.HeartbeatInterval)
		for time.Now().Before(settle) && len(crashed) > 0 {
			allDead := true
			for _, i := range crashed {
				if sv.sup.Status(i) != supervise.StatusDead {
					allDead = false
				}
			}
			if allDead {
				break
			}
			time.Sleep(opts.ProbeInterval)
			crashed = sv.probeAll()
		}
	}

	if len(crashed) == 0 {
		sv.resetCluster(t)
		sv.sup.Record(supervise.EventRetry, -1, t, "transient failure, all workers reachable: "+short(cause.Error()))
		return t, nil
	}

	// LeaveOnDeath: a permanently dead worker becomes a membership leave —
	// its vertices move to the survivors at the boundary before the retried
	// epoch (cluster.maybeTransition, top of the training loop) — instead of
	// being respawned in place. The whole cluster crashing at once still
	// takes the respawn path: a view transition must leave someone to train.
	if sv.cl.elastic() && sv.cfg.Elastic.LeaveOnDeath && len(crashed) < len(sv.cl.active) {
		for _, i := range crashed {
			sv.cl.forceLeave(i, fmt.Sprintf("phi-detected death at epoch %d: %s", t, short(cause.Error())))
			sv.sup.Record(supervise.EventLeave, i, t, "permanent death converted to membership leave")
		}
		sv.sup.Record(supervise.EventRetry, -1, t, short(cause.Error()))
		return t, nil
	}

	for _, i := range crashed {
		if !sv.sup.AwaitReachable(i, opts.ProbeBudget) {
			reason := fmt.Sprintf("worker %d unreachable after %v probe budget", i, opts.ProbeBudget)
			if opts.AutoRollback {
				return sv.rollback(t, reason)
			}
			return 0, fmt.Errorf("core: %s at epoch %d: %w", reason, t, cause)
		}
		w := sv.cl.newWorker(i)
		sv.cl.workers[i] = w
		sv.cl.registerWorker(i, w)
		sv.sup.Record(supervise.EventRespawn, i, t, "fresh worker replaced dead one")
		if err := w.FetchGhostFeatures(); err != nil {
			reason := fmt.Sprintf("rehydrate worker %d: %v", i, err)
			if opts.AutoRollback {
				return sv.rollback(t, reason)
			}
			return 0, fmt.Errorf("core: %s at epoch %d: %w", reason, t, cause)
		}
		detail := "ghost features refetched; params from PS on next pull"
		if vs, err := sv.cl.tier.serverVersions(); err == nil {
			detail = fmt.Sprintf("%s (server versions %v)", detail, vs)
		}
		sv.sup.Record(supervise.EventRehydrate, i, t, detail)
	}
	sv.resetCluster(t)
	sv.sup.Record(supervise.EventRetry, -1, t, short(cause.Error()))
	return t, nil
}

// probeAll pings every active worker node from the monitor and returns the
// ones that did not answer.
func (sv *supervisedRun) probeAll() []int {
	var crashed []int
	for _, i := range sv.cl.active {
		if !sv.sup.Probe(i) {
			crashed = append(crashed, i)
		}
	}
	return crashed
}

// resetCluster discards compensation state on every worker — respawned or
// surviving; EC pairs span workers, so both ends must re-baseline — and
// forces the next forward round exact.
func (sv *supervisedRun) resetCluster(t int) {
	for _, w := range sv.cl.workerList() {
		w.ResetSessionState()
	}
	for _, w := range sv.cl.workerList() {
		w.ForceExactSync()
	}
	sv.sup.Record(supervise.EventExactSync, -1, t, "EC state reset cluster-wide; next FP round exact")
}

// guardTripped handles a fired numeric guard: rollback-and-replay when
// AutoRollback allows it, a terminal error otherwise.
func (sv *supervisedRun) guardTripped(t int, reason string) (int, error) {
	sv.sup.Record(supervise.EventGuardTrip, -1, t, reason)
	if !sv.sup.Options().AutoRollback {
		return 0, fmt.Errorf("core: numeric guard tripped at epoch %d: %s (auto-rollback disabled)", t, reason)
	}
	if err := sv.spendRecovery(t, reason); err != nil {
		return 0, err
	}
	return sv.rollback(t, reason)
}

// rollback restores the servers from the latest usable checkpoint — or the
// run's initial state when none exists — rewinds the result bookkeeping
// and returns the epoch to replay from. Worker-side state is reset rather
// than restored: matStore epoch tags ahead of the replay epoch would
// poison the publication protocol, and EC residuals would compensate for
// quantisation errors of a trajectory that no longer exists.
func (sv *supervisedRun) rollback(t int, reason string) (int, error) {
	target := sv.startEpoch
	restored := false
	if sv.cfg.CheckpointPath != "" {
		if ckpt, err := LoadCheckpointFile(sv.cfg.CheckpointPath); err == nil {
			if ckpt.compatibleWith(sv.cfg.Kind, sv.dims) == nil && ckpt.Epoch >= sv.startEpoch {
				if err := restoreServers(sv.cl.tier.primaries, sv.cl.ranges, ckpt); err != nil {
					return 0, fmt.Errorf("core: rollback: %w", err)
				}
				target = ckpt.Epoch
				sv.res.BestVal = ckpt.BestVal
				sv.res.BestEpoch = ckpt.BestEpoch
				sv.res.TestAccuracy = ckpt.TestAtBest
				restored = true
			}
		}
	}
	if !restored {
		for i, srv := range sv.cl.tier.primaries {
			if err := srv.Restore(sv.initState[i]); err != nil {
				return 0, fmt.Errorf("core: rollback to initial state: %w", err)
			}
		}
		sv.res.BestVal = sv.initBestVal
		sv.res.BestEpoch = sv.initBestEpoch
		sv.res.TestAccuracy = sv.initTestBest
	}
	// Backups follow the rewind: the replication stream refuses version
	// regressions by design, so the engine restores them directly.
	if err := sv.cl.tier.restoreBackups(); err != nil {
		return 0, err
	}
	sv.res.Epochs = sv.res.Epochs[:target-sv.startEpoch]
	sv.lossN, sv.lossMean, sv.lossM2 = 0, 0, 0
	sv.sup.Record(supervise.EventRollback, -1, t, fmt.Sprintf("replaying from epoch %d: %s", target, short(reason)))
	sv.resetCluster(target)
	return target, nil
}

// noteSuccess closes out a recovery episode once an epoch completes.
func (sv *supervisedRun) noteSuccess(t int) {
	if sv.pending {
		sv.pending = false
		sv.sup.Record(supervise.EventRecovered, -1, t, "epoch completed after recovery")
	}
}

// short truncates long error chains for event details.
func short(s string) string {
	if len(s) > 160 {
		return s[:157] + "..."
	}
	return s
}
