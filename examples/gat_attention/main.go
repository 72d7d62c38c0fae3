// GAT example: the attention-based GNN variant §III-B describes EC-Graph
// supporting (same communication topology as GCN: embeddings from
// in-neighbours forward, embedding gradients from out-neighbours backward).
// Trains a 2-layer GAT with one and four heads on the cora preset, next to
// GCN and GraphSAGE — all four through the one nn.Model type — and prints
// per-class F1 so the attention heads' effect is visible beyond plain
// accuracy. The distributed runs are `ecgraph-train -model gat` and
// `ecgraph-bench -exp gat`.
//
//	go run ./examples/gat_attention
package main

import (
	"fmt"
	"os"

	"ecgraph/internal/datasets"
	"ecgraph/internal/graph"
	"ecgraph/internal/metrics"
	"ecgraph/internal/nn"
)

func main() {
	d := datasets.MustLoad("cora")
	adj := graph.Normalize(d.Graph)
	const epochs, lr = 40, 0.01
	dims := []int{d.NumFeatures(), 16, d.NumClasses}

	table := metrics.NewTable("GNN variants on cora (single machine, full batch)",
		"model", "test acc", "macro F1", "best epoch")
	for _, v := range []struct {
		name string
		m    *nn.Model
	}{
		{"gcn", nn.NewModel(nn.KindGCN, dims, 1)},
		{"sage", nn.NewModel(nn.KindSAGE, dims, 1)},
		{"gat-1head", nn.NewGAT(dims, 1, 1)},
		{"gat-4head", nn.NewGAT(dims, 4, 1)},
	} {
		res := nn.TrainFullGraph(v.m, d, epochs, lr)
		acts := v.m.Forward(adj, d.Features)
		out := acts.H[len(acts.H)-1]
		table.AddRowStrings(v.name,
			fmt.Sprintf("%.4f", res.TestAccuracy),
			fmt.Sprintf("%.4f", nn.MacroF1(out, d.Labels, d.TestIdx(), d.NumClasses)),
			fmt.Sprintf("%d", res.BestEpoch))
	}
	table.Render(os.Stdout)
}
