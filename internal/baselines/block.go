package baselines

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ecgraph/internal/core"
	"ecgraph/internal/datasets"
	"ecgraph/internal/ec"
	"ecgraph/internal/graph"
	"ecgraph/internal/nn"
	"ecgraph/internal/partition"
	"ecgraph/internal/ps"
	"ecgraph/internal/tensor"
	"ecgraph/internal/transport"
)

// MethodGetFeats serves feature rows by global vertex id for the block
// trainers (the "pull all the needed information" step of ML-centered
// systems, §III-C).
const MethodGetFeats = "b.getFeats"

// BlockConfig parameterises the block-based (sampling / L-hop caching)
// training systems.
type BlockConfig struct {
	Dataset     *datasets.Dataset
	Kind        nn.Kind
	Hidden      []int
	Workers     int
	Servers     int
	Partitioner partition.Partitioner
	Epochs      int
	LR          float64
	Seed        int64

	// Fanouts is the per-layer sampling fan-out (paper notation like
	// (10,5)); nil caches the full L-hop neighbourhood (AliGraph-FG).
	Fanouts []int
	// Online resamples the block and refetches remote features every epoch
	// (DistDGL's online sampling).
	Online bool
	// Revectorize rebuilds the block's adjacency structure every epoch,
	// modelling AGL's non-overlapped GraphFlat vectorisation cost.
	Revectorize bool
	// FeatureBits compresses feature fetches when > 0 (EC-Graph-S).
	FeatureBits int

	Cost transport.CostModel
}

func (c *BlockConfig) withDefaults() (BlockConfig, error) {
	cfg := *c
	if cfg.Dataset == nil {
		return cfg, fmt.Errorf("baselines: BlockConfig.Dataset is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 1
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{16}
	}
	if cfg.Partitioner == nil {
		cfg.Partitioner = partition.Hash{}
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 100
	}
	if cfg.LR == 0 {
		cfg.LR = 0.01
	}
	if cfg.Cost == (transport.CostModel{}) {
		cfg.Cost = transport.GigabitEthernet()
	}
	return cfg, nil
}

// blockWorker is one node of a block-based system.
type blockWorker struct {
	id           int
	cfg          *BlockConfig
	net          transport.Network
	assign       []int
	seeds        []int32 // owned training vertices
	model        *nn.Model
	psc          *ps.Client
	rng          *rand.Rand
	nTrainGlobal int

	// Block state.
	verts    []int32         // global ids, sorted
	vertPos  map[int32]int32 // global id → block row
	edges    [][2]int32      // block edges in local ids
	adj      *graph.NormAdjacency
	feats    *tensor.Matrix
	seedMask []bool
}

// buildBlock (re)samples the worker's training block: the sampled (or full)
// L-hop neighbourhood of its seed vertices and the message edges that were
// drawn.
func (bw *blockWorker) buildBlock() {
	g := bw.cfg.Dataset.Graph
	L := len(bw.cfg.Hidden) + 1
	inBlock := make(map[int32]struct{}, len(bw.seeds))
	var verts []int32
	add := func(v int32) {
		if _, ok := inBlock[v]; !ok {
			inBlock[v] = struct{}{}
			verts = append(verts, v)
		}
	}
	for _, s := range bw.seeds {
		add(s)
	}
	bw.edges = bw.edges[:0]
	frontier := append([]int32(nil), bw.seeds...)
	var scratch []int32
	for hop := 0; hop < L; hop++ {
		var next []int32
		for _, v := range frontier {
			nbrs := g.Neighbors(int(v))
			if bw.cfg.Fanouts != nil {
				fanout := bw.cfg.Fanouts[hop]
				if len(nbrs) > fanout {
					scratch = scratch[:0]
					scratch = append(scratch, nbrs...)
					for i := 0; i < fanout; i++ {
						j := i + bw.rng.Intn(len(scratch)-i)
						scratch[i], scratch[j] = scratch[j], scratch[i]
					}
					nbrs = scratch[:fanout]
				}
			}
			for _, u := range nbrs {
				if _, seen := inBlock[u]; !seen {
					add(u)
					next = append(next, u)
				}
				bw.edges = append(bw.edges, [2]int32{v, u})
			}
		}
		frontier = next
	}
	sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })
	bw.verts = verts
	bw.vertPos = make(map[int32]int32, len(verts))
	for i, v := range verts {
		bw.vertPos[v] = int32(i)
	}
	for i, e := range bw.edges {
		bw.edges[i] = [2]int32{bw.vertPos[e[0]], bw.vertPos[e[1]]}
	}
	bw.seedMask = make([]bool, len(verts))
	for _, s := range bw.seeds {
		bw.seedMask[bw.vertPos[s]] = true
	}
	bw.adj = nil
	bw.feats = nil
}

// vectorize builds the block's normalised adjacency from the edge list —
// the GraphFlat / sub-graph vectorisation step.
func (bw *blockWorker) vectorize() {
	bw.adj = graph.Normalize(graph.FromEdges(len(bw.verts), bw.edges))
}

// fetchFeatures pulls the feature rows of non-owned block vertices from
// their owners, optionally compressed, and assembles the block feature
// matrix.
func (bw *blockWorker) fetchFeatures() error {
	d := bw.cfg.Dataset
	bw.feats = tensor.New(len(bw.verts), d.NumFeatures())
	byOwner := make(map[int][]int32)
	for _, v := range bw.verts {
		if o := bw.assign[v]; o != bw.id {
			byOwner[o] = append(byOwner[o], v)
		} else {
			copy(bw.feats.Row(int(bw.vertPos[v])), d.Features.Row(int(v)))
		}
	}
	owners := make([]int, 0, len(byOwner))
	for o := range byOwner {
		owners = append(owners, o)
	}
	sort.Ints(owners)
	for _, o := range owners {
		ids := byOwner[o]
		req := transport.NewWriter(8 + len(ids)*4)
		req.Int32s(ids)
		req.Byte(byte(bw.cfg.FeatureBits))
		resp, err := bw.net.Call(bw.id, o, MethodGetFeats, req.Bytes())
		if err != nil {
			return fmt.Errorf("baselines: worker %d fetch feats from %d: %w", bw.id, o, err)
		}
		rows := ec.ParseMatrix(resp)
		for k, v := range ids {
			copy(bw.feats.Row(int(bw.vertPos[v])), rows.Row(k))
		}
	}
	return nil
}

// handler serves feature fetches out of this worker's owned rows.
func (bw *blockWorker) handler() transport.Handler {
	d := bw.cfg.Dataset
	return func(method string, req []byte) (resp []byte, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("baselines: worker %d: %s: %v", bw.id, method, r)
			}
		}()
		if method != MethodGetFeats {
			return nil, fmt.Errorf("baselines: unknown method %q", method)
		}
		r := transport.NewReader(req)
		ids := r.Int32s()
		bits := int(r.Byte())
		rows := tensor.New(len(ids), d.NumFeatures())
		for k, v := range ids {
			copy(rows.Row(k), d.Features.Row(int(v)))
		}
		if bits > 0 {
			return ec.RespondCompressOnly(rows, bits), nil
		}
		return ec.RespondRaw(rows), nil
	}
}

// runEpoch executes one local training round over the block.
func (bw *blockWorker) runEpoch(t int) error {
	flat, err := bw.psc.Pull(t)
	if err != nil {
		return err
	}
	bw.model.SetFlatParams(flat)
	if bw.cfg.Online {
		bw.buildBlock()
		bw.vectorize()
		if err := bw.fetchFeatures(); err != nil {
			return err
		}
	} else if bw.cfg.Revectorize {
		bw.vectorize()
	}
	acts := bw.model.Forward(bw.adj, bw.feats)
	logits := acts.H[len(acts.H)-1]
	labels := make([]int, len(bw.verts))
	for i, v := range bw.verts {
		labels[i] = bw.cfg.Dataset.Labels[v]
	}
	_, gradOut := nn.SoftmaxCrossEntropy(logits, labels, bw.seedMask)
	// Rescale from the local seed mean to the global train mean so the
	// summed gradient at the servers matches full-batch semantics.
	if n := countTrue(bw.seedMask); n > 0 && bw.nTrainGlobal > 0 {
		gradOut.ScaleInPlace(float32(n) / float32(bw.nTrainGlobal))
	}
	grads := bw.model.Backward(bw.adj, acts, gradOut)
	return bw.psc.Push(t, grads.Flatten())
}

func countTrue(mask []bool) int {
	n := 0
	for _, m := range mask {
		if m {
			n++
		}
	}
	return n
}

// TrainBlock runs a block-based system to completion and reports in the
// same shape as core.Train. Validation/test accuracy is evaluated on the
// full graph with the current global parameters (not charged to traffic).
func TrainBlock(c BlockConfig) (*core.Result, error) {
	cfg, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	d := cfg.Dataset
	dims := append([]int{d.NumFeatures()}, cfg.Hidden...)
	dims = append(dims, d.NumClasses)

	res := &core.Result{}
	preStart := time.Now()
	assign := cfg.Partitioner.Partition(d.Graph, cfg.Workers)
	res.PartitionStats = partition.Analyze(d.Graph, assign, cfg.Workers)

	net := transport.NewInProc(cfg.Workers + cfg.Servers)
	defer net.Close()

	template := nn.NewModel(cfg.Kind, dims, cfg.Seed)
	flat := template.FlattenParams()
	ranges := ps.Ranges(len(flat), cfg.Servers)
	serverNodes := make([]int, cfg.Servers)
	for i := 0; i < cfg.Servers; i++ {
		node := cfg.Workers + i
		serverNodes[i] = node
		net.Register(node, ps.NewServer(flat[ranges[i].Lo:ranges[i].Hi], cfg.LR, cfg.Workers).Handler())
	}

	nTrain := len(d.TrainIdx())
	workers := make([]*blockWorker, cfg.Workers)
	for i := range workers {
		bw := &blockWorker{
			id: i, cfg: &cfg, net: net, assign: assign,
			model:        nn.NewModel(cfg.Kind, dims, cfg.Seed),
			psc:          ps.NewClient(net, i, serverNodes, ranges),
			rng:          rand.New(rand.NewSource(cfg.Seed*131 + int64(i))),
			nTrainGlobal: nTrain,
		}
		for _, v := range d.TrainIdx() {
			if assign[v] == i {
				bw.seeds = append(bw.seeds, int32(v))
			}
		}
		workers[i] = bw
		net.Register(i, bw.handler())
	}

	// Initial block build + vectorisation + feature pull (preprocessing).
	errs := make(chan error, cfg.Workers)
	for _, bw := range workers {
		go func(bw *blockWorker) {
			bw.buildBlock()
			bw.vectorize()
			errs <- bw.fetchFeatures()
		}(bw)
	}
	for range workers {
		if err := <-errs; err != nil {
			return nil, err
		}
	}
	for _, bw := range workers {
		res.MemoryFloats = append(res.MemoryFloats, int64(len(bw.verts))*int64(d.NumFeatures()))
	}
	nodes := cfg.Workers + cfg.Servers
	cost := func(int) transport.CostModel { return cfg.Cost }
	pre := core.EpochStats{ComputeSeconds: time.Since(preStart).Seconds()}
	pre.MeasureTraffic(net, nodes, cost, nil)
	res.PreprocessSeconds = pre.SimSeconds
	net.ResetStats()

	evalClient := ps.NewClient(net, 0, serverNodes, ranges)
	valIdx, testIdx := d.ValIdx(), d.TestIdx()
	fullAdj := graph.Normalize(d.Graph)

	for t := 0; t < cfg.Epochs; t++ {
		start := time.Now()
		for _, bw := range workers {
			go func(bw *blockWorker) { errs <- bw.runEpoch(t) }(bw)
		}
		for range workers {
			if err := <-errs; err != nil {
				return nil, err
			}
		}
		wall := time.Since(start).Seconds()
		stats := core.EpochStats{RawComputeSeconds: wall, ComputeSeconds: wall / float64(cfg.Workers)}
		stats.MeasureTraffic(net, nodes, cost, nil)

		// Evaluate the global model on the full graph (uncounted).
		cur, err := evalClient.Pull(t + 1)
		if err != nil {
			return nil, err
		}
		template.SetFlatParams(cur)
		evalActs := template.Forward(fullAdj, d.Features)
		logits := evalActs.H[len(evalActs.H)-1]
		loss, _ := nn.SoftmaxCrossEntropy(logits, d.Labels, d.TrainMask)
		stats.Loss = loss
		stats.ValAcc = nn.Accuracy(logits, d.Labels, valIdx)
		stats.TestAcc = nn.Accuracy(logits, d.Labels, testIdx)
		net.ResetStats()
		res.Record(t, stats)
	}
	res.Finish(0)
	return res, nil
}
