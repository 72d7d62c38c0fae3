// Package datasets generates the benchmark graphs used throughout the
// evaluation.
//
// The paper evaluates on Cora, Pubmed, Reddit, OGBN-Products and
// OGBN-Papers100M. Those datasets (and the scale of the larger ones) are not
// available offline, so this package substitutes seeded stochastic-block-
// model graphs with class-correlated features. Each preset preserves the
// properties the paper's evaluation actually depends on — relative size,
// average degree, feature dimensionality, class count and homophily — at a
// size that trains in seconds on one machine. See DESIGN.md §2 for the
// substitution argument.
package datasets

import (
	"fmt"
	"math/rand"
	"sort"

	"ecgraph/internal/graph"
	"ecgraph/internal/tensor"
)

// Dataset is an attributed, labelled graph with train/val/test splits.
type Dataset struct {
	Name       string
	Graph      *graph.Graph
	Features   *tensor.Matrix // N × NumFeatures
	Labels     []int          // len N, in [0, NumClasses)
	NumClasses int

	TrainMask, ValMask, TestMask []bool // len N each
}

// NumFeatures returns the feature dimensionality.
func (d *Dataset) NumFeatures() int { return d.Features.Cols }

// TrainIdx returns the indices of training vertices.
func (d *Dataset) TrainIdx() []int { return maskIdx(d.TrainMask) }

// ValIdx returns the indices of validation vertices.
func (d *Dataset) ValIdx() []int { return maskIdx(d.ValMask) }

// TestIdx returns the indices of test vertices.
func (d *Dataset) TestIdx() []int { return maskIdx(d.TestMask) }

func maskIdx(mask []bool) []int {
	var out []int
	for i, m := range mask {
		if m {
			out = append(out, i)
		}
	}
	return out
}

// Config parameterises the synthetic generator.
type Config struct {
	Name               string
	N                  int     // number of vertices
	AvgDegree          float64 // target mean degree
	NumFeatures        int
	NumClasses         int
	Homophily          float64 // probability an edge endpoint joins the same class
	FeatureNoise       float64 // probability a class word is dropped from a vertex
	LabelNoise         float64 // probability an observed label is flipped to a random class
	TrainFrac, ValFrac float64 // remaining vertices are test
	Seed               int64
}

// Generate builds a dataset from cfg: a stochastic block model where each
// vertex draws ~AvgDegree/2 edges, each connecting within its class with
// probability Homophily, sparse binary bag-of-words features keyed to the
// class, and observed labels corrupted by LabelNoise.
func Generate(cfg Config) *Dataset {
	if cfg.N <= 0 || cfg.NumClasses <= 0 || cfg.NumFeatures <= 0 {
		panic(fmt.Sprintf("datasets: invalid config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	labels := make([]int, cfg.N)
	byClass := make([][]int32, cfg.NumClasses)
	for i := range labels {
		c := rng.Intn(cfg.NumClasses)
		labels[i] = c
		byClass[c] = append(byClass[c], int32(i))
	}

	// Edges: each vertex initiates AvgDegree/2 edges on average so the
	// resulting undirected degree averages AvgDegree.
	perVertex := cfg.AvgDegree / 2
	edges := make([][2]int32, 0, int(float64(cfg.N)*perVertex)+cfg.N)
	for v := 0; v < cfg.N; v++ {
		k := int(perVertex)
		if rng.Float64() < perVertex-float64(k) {
			k++
		}
		for e := 0; e < k; e++ {
			var u int32
			if rng.Float64() < cfg.Homophily && len(byClass[labels[v]]) > 1 {
				peers := byClass[labels[v]]
				u = peers[rng.Intn(len(peers))]
			} else {
				u = int32(rng.Intn(cfg.N))
			}
			if int(u) != v {
				edges = append(edges, [2]int32{int32(v), u})
			}
		}
	}
	g := graph.FromEdges(cfg.N, edges)

	// Features are sparse binary bag-of-words, like the real citation
	// datasets: each class activates a ~12% subset of the vocabulary; a
	// vertex turns on each of its class's words with probability
	// (1 - FeatureNoise) and any word as background noise with a small
	// probability. Values live in {0,1} ⊂ [0,1], the domain the paper's
	// quantiser assumes for initial embeddings.
	classWords := make([][]bool, cfg.NumClasses)
	for c := range classWords {
		words := make([]bool, cfg.NumFeatures)
		for j := range words {
			words[j] = rng.Float64() < 0.12
		}
		classWords[c] = words
	}
	feats := tensor.New(cfg.N, cfg.NumFeatures)
	keep := 1 - cfg.FeatureNoise
	for v := 0; v < cfg.N; v++ {
		row := feats.Row(v)
		words := classWords[labels[v]]
		for j := range row {
			if words[j] && rng.Float64() < keep {
				row[j] = 1
			} else if rng.Float64() < 0.02 {
				row[j] = 1
			}
		}
	}

	// Observed labels: the true community with LabelNoise probability of a
	// uniform random flip. Edges and features follow the true community, so
	// label noise acts as irreducible Bayes error, capping attainable
	// accuracy the way real datasets do.
	observed := make([]int, cfg.N)
	copy(observed, labels)
	for v := range observed {
		if rng.Float64() < cfg.LabelNoise {
			observed[v] = rng.Intn(cfg.NumClasses)
		}
	}

	train := make([]bool, cfg.N)
	val := make([]bool, cfg.N)
	test := make([]bool, cfg.N)
	perm := rng.Perm(cfg.N)
	nTrain := int(float64(cfg.N) * cfg.TrainFrac)
	nVal := int(float64(cfg.N) * cfg.ValFrac)
	for i, v := range perm {
		switch {
		case i < nTrain:
			train[v] = true
		case i < nTrain+nVal:
			val[v] = true
		default:
			test[v] = true
		}
	}

	return &Dataset{
		Name:       cfg.Name,
		Graph:      g,
		Features:   feats,
		Labels:     observed,
		NumClasses: cfg.NumClasses,
		TrainMask:  train,
		ValMask:    val,
		TestMask:   test,
	}
}

// Presets mirrors Table III of the paper at laptop scale. The map keys are
// the names used by the benchmark harness. Scaled sizes keep the *ratios*
// between datasets (papers ≫ products ≫ reddit ≫ pubmed ≫ cora) and, most
// importantly, the average-degree ordering (reddit's extreme degree is the
// property Fig. 6/8 depend on).
var presets = map[string]Config{
	"cora": {
		Name: "cora", N: 2708, AvgDegree: 3.9, NumFeatures: 256, NumClasses: 7,
		Homophily: 0.83, FeatureNoise: 0.80, LabelNoise: 0.14,
		TrainFrac: 0.52, ValFrac: 0.11, Seed: 42,
	},
	"pubmed": {
		Name: "pubmed", N: 4000, AvgDegree: 4.5, NumFeatures: 128, NumClasses: 3,
		Homophily: 0.80, FeatureNoise: 0.80, LabelNoise: 0.19,
		TrainFrac: 0.65, ValFrac: 0.10, Seed: 43,
	},
	"reddit": {
		Name: "reddit", N: 2400, AvgDegree: 120, NumFeatures: 128, NumClasses: 8,
		Homophily: 0.72, FeatureNoise: 0.85, LabelNoise: 0.075,
		TrainFrac: 0.66, ValFrac: 0.10, Seed: 44,
	},
	"ogbn-products": {
		Name: "ogbn-products", N: 8000, AvgDegree: 30, NumFeatures: 100, NumClasses: 16,
		Homophily: 0.75, FeatureNoise: 0.85, LabelNoise: 0.14,
		TrainFrac: 0.08, ValFrac: 0.02, Seed: 45,
	},
	"ogbn-papers": {
		Name: "ogbn-papers", N: 16000, AvgDegree: 25, NumFeatures: 128, NumClasses: 32,
		Homophily: 0.70, FeatureNoise: 0.85, LabelNoise: 0.56,
		TrainFrac: 0.10, ValFrac: 0.01, Seed: 46,
	},
}

// PresetNames returns the preset keys in evaluation order.
func PresetNames() []string {
	return []string{"cora", "pubmed", "reddit", "ogbn-products", "ogbn-papers"}
}

// PresetConfig returns a copy of the named preset's generator config.
func PresetConfig(name string) (Config, error) {
	cfg, ok := presets[name]
	if !ok {
		keys := make([]string, 0, len(presets))
		for k := range presets {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return Config{}, fmt.Errorf("datasets: unknown preset %q (have %v)", name, keys)
	}
	return cfg, nil
}

// Load generates the named preset dataset. Generation is deterministic for
// a given preset, so repeated loads return identical graphs.
func Load(name string) (*Dataset, error) {
	cfg, err := PresetConfig(name)
	if err != nil {
		return nil, err
	}
	return Generate(cfg), nil
}

// MustLoad is Load but panics on an unknown preset; for examples and benches.
func MustLoad(name string) *Dataset {
	d, err := Load(name)
	if err != nil {
		panic(err)
	}
	return d
}
