// Command ecgraph-partition partitions a preset dataset's graph and prints
// cut statistics for each strategy — the data behind Fig. 11's Hash/METIS
// comparison.
//
//	ecgraph-partition -dataset ogbn-products -k 6
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ecgraph/internal/cliconf"
	"ecgraph/internal/metrics"
	"ecgraph/internal/partition"
)

func main() {
	common := cliconf.Register(flag.CommandLine, cliconf.Defaults{Dataset: "cora"}, cliconf.Data)
	k := flag.Int("k", 6, "number of partitions")
	flag.Parse()

	d, err := common.LoadDataset()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ecgraph-partition: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d vertices, %d edges, avg degree %.2f\n\n",
		d.Name, d.Graph.N, d.Graph.NumEdges(), d.Graph.AvgDegree())

	table := metrics.NewTable(fmt.Sprintf("partition quality, k=%d", *k),
		"strategy", "time", "edge cut", "cut %", "remote degree", "max imbalance")
	for _, name := range []string{"hash", "metis"} {
		p, err := partition.ByName(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ecgraph-partition: %v\n", err)
			os.Exit(1)
		}
		start := time.Now()
		assign := p.Partition(d.Graph, *k)
		elapsed := time.Since(start).Seconds()
		s := partition.Analyze(d.Graph, assign, *k)
		table.AddRowStrings(name,
			metrics.FormatSeconds(elapsed),
			fmt.Sprintf("%d", s.EdgeCut),
			fmt.Sprintf("%.1f%%", s.CutFraction*100),
			fmt.Sprintf("%.2f", s.RemoteDegree),
			fmt.Sprintf("%.3f", s.MaxImbalance))
	}
	table.Render(os.Stdout)
}
