// Command ecgraph-serve is the production inference half of EC-Graph: a
// long-running service that loads a trained model (or a training
// checkpoint), shards the graph across serving replicas and answers
// per-vertex classification requests over an HTTP front door mounted on
// the metrics server — one port carries /v1/*, /metrics and /debug/pprof.
//
//	ecgraph-train -dataset cora -epochs 30 -save-model /tmp/cora.model
//	ecgraph-serve -dataset cora -model /tmp/cora.model -metrics-addr 127.0.0.1:8090
//	curl -s localhost:8090/v1/predict -d '{"vertices":[0,1,2]}'
//	curl -s localhost:8090/v1/swap    -d '{"model":"/tmp/cora2.model"}'
//
// SIGINT/SIGTERM drains the admission queue, finishes in-flight batches
// and closes the listener before exiting.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"ecgraph/internal/cliconf"
	"ecgraph/internal/core"
	"ecgraph/internal/obs"
	"ecgraph/internal/serve"
	"ecgraph/internal/tensor"
)

func main() {
	common := cliconf.Register(flag.CommandLine,
		cliconf.Defaults{Dataset: "cora", MetricsAddr: "127.0.0.1:8090"},
		cliconf.Data|cliconf.Files|cliconf.Obs)
	var (
		modelPath = flag.String("model", "", "saved model (ecgraph-train -save-model) or training checkpoint (.eck) to serve")
		shards    = flag.Int("shards", 2, "serving replicas the graph is sharded across")

		queueDepth   = flag.Int("queue-depth", 256, "admission queue bound, in requests; arrivals beyond it get 429")
		maxBatch     = flag.Int("max-batch", 256, "max vertices coalesced into one SpMM batch (while every round slot is busy)")
		inflight     = flag.Int("inflight-batches", 2, "batch rounds allowed in flight at once")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "bound on waiting out old-version batches during a swap")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "ecgraph-serve: %v\n", err)
		os.Exit(1)
	}
	if *modelPath == "" {
		fail(fmt.Errorf("-model is required"))
	}
	if common.MetricsAddr == "" {
		fail(fmt.Errorf("-metrics-addr is required: the service is its HTTP endpoint"))
	}
	if err := common.Validate(); err != nil {
		fail(err)
	}
	d, err := common.LoadDataset()
	if err != nil {
		fail(err)
	}
	model, err := core.LoadModelFile(*modelPath)
	if err != nil {
		fail(err)
	}

	// The service must exist before the listener accepts (the mount hands
	// it to the mux), and its instruments need the registry — so build the
	// registry, then the service, then start the endpoint.
	reg := obs.NewRegistry()
	svcCfg := serve.Config{
		Graph:           d.Graph,
		Features:        d.Features,
		Shards:          *shards,
		QueueDepth:      *queueDepth,
		MaxBatch:        *maxBatch,
		InflightBatches: *inflight,
		DrainTimeout:    *drainTimeout,
		Metrics:         reg,
	}
	s, err := serve.New(svcCfg)
	if err != nil {
		fail(err)
	}
	tel, err := common.StartTelemetryWith(reg, func(mux *http.ServeMux) {
		serve.Mount(mux, s, core.LoadModelFile)
	})
	if err != nil {
		fail(err)
	}

	fmt.Printf("serving %s: %d vertices over %d shards (hash partition), %s kernel\n",
		d.Name, d.Graph.N, *shards, tensor.Kernel())
	if err := s.SwapModel(model); err != nil {
		fail(err)
	}
	fmt.Printf("model %s installed as version %d (%s, %v dims)\n",
		*modelPath, s.ActiveVersion(), model.Kind, model.Dims)
	fmt.Printf("front door on http://%s/v1/predict\n", tel.Server.Addr())

	g := cliconf.NewGraceful("ecgraph-serve")
	g.Defer(tel.Close)
	g.Defer(func() { s.Close() })
	g.Arm(0)
	select {} // serve until signalled; Arm handles drain + exit
}
