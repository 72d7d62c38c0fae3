package experiments

import (
	"fmt"

	"ecgraph/internal/core"
	"ecgraph/internal/metrics"
	"ecgraph/internal/nn"
	"ecgraph/internal/worker"
)

func init() {
	register("gat", "distributed GAT on the EC-Graph runtime (§III-B): raw vs EC schemes vs GCN", runGAT)
}

// runGAT exercises §III-B's model-generality claim end to end: a
// distributed multi-head GAT trained by core.Train on the GCN workers, with and without
// error-compensated compression, next to the GCN numbers for scale.
func runGAT(opt Options) error {
	ds := "cora"
	heads := 4
	hidden := 16
	if opt.Quick {
		heads = 1
		hidden = 8
	}
	workers := clusterWorkers(opt.Quick)

	table := metrics.NewTable(
		fmt.Sprintf("Distributed GAT — %s, %d workers, %d heads", ds, workers, heads),
		"system", "scheme", "test acc", "s/epoch", "epoch traffic")

	add := func(name, scheme string, res *core.Result) {
		table.AddRowStrings(name, scheme,
			fmt.Sprintf("%.4f", res.TestAccuracy),
			metrics.FormatSeconds(avgEpochSkipWarmup(res)),
			metrics.FormatBytes(res.AvgEpochBytes()))
	}

	gcn, err := core.Train(engineConfig(ds, 2, ecGraphOptions(ds), opt.Quick))
	if err != nil {
		return fmt.Errorf("gat experiment (gcn reference): %w", err)
	}
	add("GCN", "EC", gcn)

	base := engineConfig(ds, 2, worker.Options{}, opt.Quick)
	base.Kind, base.Hidden, base.Heads = nn.KindGAT, []int{hidden}, heads
	raw, err := core.Train(base)
	if err != nil {
		return fmt.Errorf("gat experiment (raw): %w", err)
	}
	add("GAT", "raw", raw)

	ecCfg := base
	ecCfg.Worker = worker.Options{FPScheme: worker.SchemeEC, FPBits: 4, Ttr: 10, BPScheme: worker.SchemeEC, BPBits: 4}
	ecRes, err := core.Train(ecCfg)
	if err != nil {
		return fmt.Errorf("gat experiment (ec): %w", err)
	}
	add("GAT", "EC 4-bit", ecRes)

	table.Render(opt.Out)
	fmt.Fprintf(opt.Out, "EC cuts GAT traffic %.1fx at matched accuracy (Δacc %+.4f)\n\n",
		raw.AvgEpochBytes()/ecRes.AvgEpochBytes(), ecRes.TestAccuracy-raw.TestAccuracy)
	return nil
}
