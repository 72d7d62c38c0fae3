// Command ecgraph-infer is the inference companion of ecgraph-train:
//
//	ecgraph-infer eval   -model model.ecg -dataset cora
//	ecgraph-infer eval   -model ckpt.eck  -edges e.txt -vertices v.txt
//	ecgraph-infer client -addr http://127.0.0.1:8090 -sample 64 -dataset cora
//
// "eval" loads a saved model (nn.Model.SaveFile) or a training checkpoint,
// runs one full forward pass locally and reports accuracy, macro-F1 and the
// confusion matrix. "client" sends prediction requests for sampled
// vertices to a running ecgraph-serve front door and scores the answers
// against the dataset's labels.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"time"

	"ecgraph/internal/cliconf"
	"ecgraph/internal/core"
	"ecgraph/internal/graph"
	"ecgraph/internal/metrics"
	"ecgraph/internal/nn"
	"ecgraph/internal/serve"
)

// A client request carries at most requestBatch vertices and waits at most
// requestTimeout for its answer.
const (
	requestBatch   = 64
	requestTimeout = 10 * time.Second
)

func fail(err error) {
	fmt.Fprintf(os.Stderr, "ecgraph-infer: %v\n", err)
	os.Exit(1)
}

func main() {
	if len(os.Args) < 2 {
		fail(fmt.Errorf("need a subcommand: eval or client"))
	}
	switch sub, args := os.Args[1], os.Args[2:]; sub {
	case "eval":
		runEval(args)
	case "client":
		runClient(args)
	default:
		fail(fmt.Errorf("unknown subcommand %q (eval, client)", sub))
	}
}

// runEval is the one-shot local forward pass over a whole graph.
func runEval(args []string) {
	fs := flag.NewFlagSet("ecgraph-infer eval", flag.ExitOnError)
	common := cliconf.Register(fs, cliconf.Defaults{}, cliconf.Data|cliconf.Files)
	modelPath := fs.String("model", "", "saved model (nn.Model.SaveFile) or training checkpoint (.eck)")
	confusion := fs.Bool("confusion", false, "print the confusion matrix")
	if err := fs.Parse(args); err != nil {
		fail(err)
	}
	if *modelPath == "" {
		fail(fmt.Errorf("-model is required"))
	}
	// LoadModelFile sniffs the magic, so eval serves both plain model files
	// and ECK training checkpoints.
	model, err := core.LoadModelFile(*modelPath)
	if err != nil {
		fail(err)
	}
	d, err := common.LoadDataset()
	if err != nil {
		fail(err)
	}
	if model.Dims[0] != d.NumFeatures() || model.Dims[len(model.Dims)-1] != d.NumClasses {
		fail(fmt.Errorf("model expects %d features → %d classes, dataset has %d → %d",
			model.Dims[0], model.Dims[len(model.Dims)-1], d.NumFeatures(), d.NumClasses))
	}

	adj := graph.Normalize(d.Graph)
	acts := model.Forward(adj, d.Features)
	logits := acts.H[len(acts.H)-1]

	all := make([]int, d.Graph.N)
	for i := range all {
		all[i] = i
	}
	fmt.Printf("model: %s, %v dims, %d parameters\n", model.Kind, model.Dims, model.ParamCount())
	fmt.Printf("graph: %d vertices, %d edges\n\n", d.Graph.N, d.Graph.NumEdges())
	fmt.Printf("accuracy (all vertices): %.4f\n", nn.Accuracy(logits, d.Labels, all))
	if test := d.TestIdx(); len(test) > 0 && len(test) < d.Graph.N {
		fmt.Printf("accuracy (test split):   %.4f\n", nn.Accuracy(logits, d.Labels, test))
	}
	fmt.Printf("macro F1 (all vertices): %.4f\n", nn.MacroF1(logits, d.Labels, all, d.NumClasses))

	if *confusion {
		cm := nn.ConfusionMatrix(logits, d.Labels, all, d.NumClasses)
		headers := []string{"true\\pred"}
		for c := 0; c < d.NumClasses; c++ {
			headers = append(headers, fmt.Sprintf("%d", c))
		}
		table := metrics.NewTable("confusion matrix", headers...)
		for c := 0; c < d.NumClasses; c++ {
			row := []string{fmt.Sprintf("%d", c)}
			for p := 0; p < d.NumClasses; p++ {
				row = append(row, fmt.Sprintf("%d", cm[c][p]))
			}
			table.AddRowStrings(row...)
		}
		fmt.Println()
		table.Render(os.Stdout)
	}
}

// runClient sends prediction requests to a running ecgraph-serve.
func runClient(args []string) {
	fs := flag.NewFlagSet("ecgraph-infer client", flag.ExitOnError)
	common := cliconf.Register(fs, cliconf.Defaults{}, cliconf.Data|cliconf.Files)
	var (
		addr   = fs.String("addr", "http://127.0.0.1:8090", "base URL of a running ecgraph-serve front door")
		sample = fs.Int("sample", 16, "classify this many uniformly sampled vertices of the dataset")
		quiet  = fs.Bool("quiet", false, "suppress per-vertex lines, print only the summary")
	)
	if err := fs.Parse(args); err != nil {
		fail(err)
	}
	if *sample < 1 {
		fail(fmt.Errorf("-sample must be at least 1, got %d", *sample))
	}
	// The dataset gives the id range to sample from and the labels the
	// served classes are scored against.
	d, err := common.LoadDataset()
	if err != nil {
		fail(err)
	}
	rng := rand.New(rand.NewSource(1))
	vertices := make([]int, *sample)
	for i := range vertices {
		vertices[i] = rng.Intn(d.Graph.N)
	}

	client := &http.Client{Timeout: requestTimeout}
	var version uint32
	ok, failed, agree, labeled := 0, 0, 0, 0
	t0 := time.Now()
	for off := 0; off < len(vertices); off += requestBatch {
		end := off + requestBatch
		if end > len(vertices) {
			end = len(vertices)
		}
		resp, err := postPredict(client, *addr, vertices[off:end])
		if err != nil {
			fail(err)
		}
		version = resp.Version
		for _, r := range resp.Results {
			if !r.OK {
				failed++
				if !*quiet {
					fmt.Printf("vertex %-6d FAILED  %s\n", r.Vertex, r.Err)
				}
				continue
			}
			ok++
			if r.Vertex < len(d.Labels) {
				labeled++
				if int(d.Labels[r.Vertex]) == r.Class {
					agree++
				}
			}
			if !*quiet {
				fmt.Printf("vertex %-6d class %d\n", r.Vertex, r.Class)
			}
		}
	}
	elapsed := time.Since(t0)
	fmt.Printf("\nserved %d/%d vertices in %v (model version %d)\n", ok, len(vertices), elapsed.Round(time.Millisecond), version)
	if labeled > 0 {
		fmt.Printf("label agreement: %d/%d (%.4f)\n", agree, labeled, float64(agree)/float64(labeled))
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func postPredict(client *http.Client, base string, ids []int) (*serve.PredictResponse, error) {
	body, err := json.Marshal(serve.PredictRequest{Vertices: ids})
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(strings.TrimSuffix(base, "/")+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return nil, fmt.Errorf("predict: HTTP %d: %s", resp.StatusCode, e.Error)
	}
	var pr serve.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return nil, err
	}
	return &pr, nil
}
