// Command ecgraph-bench regenerates the paper's tables and figures.
//
//	ecgraph-bench -list
//	ecgraph-bench -exp fig6            # one experiment, full scale
//	ecgraph-bench -exp all -quick      # everything, CI scale
//
// Output is textual: tables for Tables II/IV/V and epoch-series blocks for
// the figures. See EXPERIMENTS.md for the recorded paper-vs-measured runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ecgraph/internal/cliconf"
	"ecgraph/internal/datasets"
	"ecgraph/internal/experiments"
	"ecgraph/internal/nn"
	"ecgraph/internal/obs"
	"ecgraph/internal/serve"
)

func main() {
	common := cliconf.Register(flag.CommandLine, cliconf.Defaults{}, cliconf.Profile)
	var (
		exp   = flag.String("exp", "", "experiment id (fig6, fig7, fig8, table2, table4, table5, fig9, fig10, fig11) or 'all'")
		quick = flag.Bool("quick", false, "run reduced configurations (small datasets, few epochs)")
		list  = flag.Bool("list", false, "list experiment ids and exit")

		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address while experiments run (host defaults to 127.0.0.1)")

		serveBench    = flag.Bool("serve", false, "benchmark the inference-serving path instead of a paper experiment, recording p50/p95/p99 + QPS")
		serveAddr     = flag.String("serve-addr", "", "load a running ecgraph-serve at this base URL instead of an in-process service")
		serveQPS      = flag.Float64("serve-qps", 400, "offered request rate")
		serveDur      = flag.Duration("serve-duration", 5*time.Second, "how long to offer load")
		serveBatch    = flag.Int("serve-batch", 4, "vertices per request")
		serveShards   = flag.Int("serve-shards", 2, "serving replicas (in-process mode)")
		serveSwap     = flag.Bool("serve-swap", true, "hot-swap the model mid-run and attribute failures in the swap window (in-process mode)")
		serveOut      = flag.String("serve-out", "BENCH_serving.json", "where to write the serving benchmark record")
		serveMinQPS   = flag.Float64("serve-min-qps", 100, "gate: minimum achieved QPS")
		serveMaxP99MS = flag.Float64("serve-max-p99-ms", 250, "gate: maximum p99 latency in milliseconds")
		serveDataset  = flag.String("serve-dataset", "cora", "dataset preset to serve (in-process mode)")
	)
	flag.Parse()

	if *serveBench {
		if err := runServeBench(serveBenchConfig{
			addr: *serveAddr, dataset: *serveDataset, shards: *serveShards,
			qps: *serveQPS, duration: *serveDur, batch: *serveBatch, swap: *serveSwap,
			out: *serveOut, minQPS: *serveMinQPS, maxP99MS: *serveMaxP99MS,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "ecgraph-bench:", err)
			os.Exit(1)
		}
		return
	}

	stopProfiles, err := common.StartProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecgraph-bench:", err)
		os.Exit(1)
	}
	defer stopProfiles()

	if *list {
		for _, name := range experiments.Names() {
			fmt.Printf("%-8s %s\n", name, experiments.Describe(name))
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: ecgraph-bench -exp <id>|all [-quick]   (use -list to enumerate)")
		os.Exit(2)
	}
	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		srv, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecgraph-bench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("metrics and pprof on http://%s\n", srv.Addr())
	}

	names := []string{*exp}
	if *exp == "all" {
		names = experiments.Names()
	}
	for _, name := range names {
		fmt.Printf("### experiment %s — %s\n\n", name, experiments.Describe(name))
		start := time.Now()
		if err := experiments.Run(name, experiments.Options{Quick: *quick, Out: os.Stdout, Metrics: reg}); err != nil {
			fmt.Fprintf(os.Stderr, "ecgraph-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %.1fs)\n\n", name, time.Since(start).Seconds())
	}
}

type serveBenchConfig struct {
	addr     string
	dataset  string
	shards   int
	qps      float64
	duration time.Duration
	batch    int
	swap     bool
	out      string
	minQPS   float64
	maxP99MS float64
}

// runServeBench drives sustained open-loop load at the serving path — an
// in-process Service by default (with an optional mid-run hot swap), or a
// running ecgraph-serve via -serve-addr — and records the latency
// distribution plus a self-evaluating gate in the BENCH_*.json schema.
func runServeBench(c serveBenchConfig) error {
	d, err := datasets.Load(c.dataset)
	if err != nil {
		return err
	}
	lg := serve.LoadGenConfig{
		QPS:       c.qps,
		Duration:  c.duration,
		BatchSize: c.batch,
		MaxVertex: d.Graph.N,
		Seed:      1,
	}

	var predict serve.PredictFn
	if c.addr != "" {
		predict = serve.HTTPPredict(c.addr, 10*time.Second)
		fmt.Printf("serving bench: %v at %.0f req/s against %s\n", c.duration, c.qps, c.addr)
	} else {
		svc, err := serve.New(serve.Config{
			Graph:    d.Graph,
			Features: d.Features,
			Shards:   c.shards,
		})
		if err != nil {
			return err
		}
		defer svc.Close()
		dims := []int{d.NumFeatures(), 16, d.NumClasses}
		if err := svc.SwapModel(nn.NewModel(nn.KindGCN, dims, 1)); err != nil {
			return err
		}
		predict = serve.DirectPredict(svc)
		if c.swap {
			lg.SwapAt = c.duration / 2
			lg.Swap = func() error { return svc.SwapModel(nn.NewModel(nn.KindGCN, dims, 2)) }
		}
		fmt.Printf("serving bench: %v at %.0f req/s, %s over %d shards, mid-run swap %v\n",
			c.duration, c.qps, d.Name, c.shards, c.swap)
	}

	rep := serve.RunLoad(predict, lg)
	ok, err := rep.WriteBench(c.out, lg, c.minQPS, c.maxP99MS)
	if err != nil {
		return err
	}
	fmt.Printf("offered %d (%.0f of %.0f req/s asked), completed %d, failed %d, rejected %d — %.0f req/s achieved\n",
		rep.Offered, rep.OfferedQPS, c.qps, rep.Completed, rep.Failed, rep.Rejected, rep.AchievedQPS)
	fmt.Printf("latency p50 %v  p95 %v  p99 %v  max %v\n", rep.P50, rep.P95, rep.P99, rep.Max)
	if rep.SwapPerformed {
		fmt.Printf("hot swap completed in %v with %d failures in the swap window\n", rep.SwapDuration, rep.SwapWindowFailed)
	}
	fmt.Printf("recorded %s (gate ok=%v: min_qps %.0f, max_p99_ms %.0f, offered ≥ 99%% of asked)\n", c.out, ok, c.minQPS, c.maxP99MS)
	if !ok {
		return fmt.Errorf("serving gate failed")
	}
	return nil
}
