package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"ecgraph/internal/supervise"
	"ecgraph/internal/transport"
	"ecgraph/internal/worker"
)

// resultHash is FNV-1a over a run's per-epoch loss bits and then its final
// parameter bits.
func resultHash(res *Result) string {
	h := fnv.New64a()
	var b [8]byte
	for _, e := range res.Epochs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(e.Loss))
		h.Write(b[:])
	}
	for _, p := range res.FinalParams {
		binary.LittleEndian.PutUint32(b[:4], math.Float32bits(p))
		h.Write(b[:4])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestExchangeGoldenUnderChaos pins 2-worker cora trajectories through the
// engine, with the degraded path exercised: seeded 30 % drops of getH/getG
// under the retrying, concurrent transport stack exhaust some exchanges'
// retries, so fallbacks — ReqEC-FP predictions, last-good rows retained
// packed — serve epochs. The supervised arm runs real heartbeats with inert
// thresholds: a detector trip on scheduler timing would be a false positive.
// The other arms cover payloads that stay packed (Cp-fp/Cp-bp), a mixed
// operand (ReqEC-FP dense, ResEC-BP packed) and sparse Top-K rows. The
// hashes and degraded-fetch counts were recorded at the parent commit
// (46113fd), where each was the same under all four of its
// sequential/pipelined × decode-first/packed paths. The two EC-both-ways
// arms (ec-chaos-supervised, resec) were re-recorded once, in the commit
// after 6fba791, because their 16 → 7 top layer began to ship P with a
// getG of at least 4 bits (DESIGN.md §10, "Narrow side on the compensated
// wire"); their degraded counts stayed 4 and 0. They were re-recorded a
// second time, in the commit after 1b5516b, because their T_tr = 5 runs
// cross a scheduled trend boundary over a base, which now ships a delta
// (DESIGN.md §8, "ReqEC-FP boundary protocol"); their degraded counts stayed
// 4 and 0. Never re-record them to make this pass.
func TestExchangeGoldenUnderChaos(t *testing.T) {
	ecOpts := worker.Options{FPScheme: worker.SchemeEC, BPScheme: worker.SchemeEC, FPBits: 2, BPBits: 2, Ttr: 5}
	cases := []struct {
		name       string
		epochs     int
		opts       worker.Options
		chaosSeed  int64 // 0: no chaos
		supervised bool
		want       string
		degraded   int
	}{
		{"ec-chaos-supervised", 12, ecOpts, 11, true, "ae28c21f0520c8d7", 4},
		{"compress-chaos", 10, worker.Options{
			FPScheme: worker.SchemeCompress, BPScheme: worker.SchemeCompress, FPBits: 4, BPBits: 4,
		}, 7, false, "7f67ec0455a93853", 5},
		{"resec", 10, ecOpts, 0, false, "74065a58b3b2815c", 0},
		{"topk", 10, worker.Options{
			FPScheme: worker.SchemeCompress, BPScheme: worker.SchemeTopK, FPBits: 4, BPBits: 4,
		}, 0, false, "9a189d3fcf052c1b", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := coraConfig(tc.epochs)
			cfg.Workers = 2
			cfg.Servers = 1
			cfg.Worker = tc.opts
			if tc.supervised {
				cfg.Supervise = &supervise.Options{
					HeartbeatInterval: 5 * time.Millisecond,
					SuspectAfter:      time.Hour,
					DeadAfter:         2 * time.Hour,
					PhiSuspect:        1e9,
					PhiDead:           2e9,
					StragglerMult:     -1,
				}
			}
			if tc.chaosSeed != 0 {
				stack := transport.NewStack(
					transport.NewInProc(cfg.Workers+cfg.Servers),
					transport.WithChaos(transport.ChaosConfig{
						Seed:     tc.chaosSeed,
						DropRate: 0.30,
						Methods:  []string{worker.MethodGetH, worker.MethodGetG},
					}),
					transport.WithReliable(transport.ReliableConfig{
						// Generous: a timeout firing on a loaded, race-
						// instrumented box would consume chaos draws on
						// scheduler timing; only the seeded drops may drive
						// retries.
						Timeout:     5 * time.Second,
						MaxAttempts: 2,
						BaseBackoff: 50 * time.Microsecond,
						Seed:        tc.chaosSeed,
					}),
					transport.WithConcurrency(4),
				)
				defer stack.Close()
				cfg.Net = stack
			}
			res, err := Train(cfg)
			if err != nil {
				t.Fatal(err)
			}
			degraded := 0
			for _, e := range res.Epochs {
				degraded += e.DegradedFetches
			}
			if got := resultHash(res); got != tc.want || degraded != tc.degraded {
				t.Fatalf("trajectory %s with %d degraded fetches, parent's %s with %d", got, degraded, tc.want, tc.degraded)
			}
		})
	}
}
