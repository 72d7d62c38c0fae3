package core

import (
	"math"
	"sync/atomic"
	"testing"

	"ecgraph/internal/datasets"
	"ecgraph/internal/graph"
	"ecgraph/internal/nn"
	"ecgraph/internal/partition"
	"ecgraph/internal/ps"
	"ecgraph/internal/transport"
	"ecgraph/internal/worker"
)

func coraConfig(epochs int) Config {
	return Config{
		Dataset: datasets.MustLoad("cora"),
		Kind:    nn.KindGCN,
		Hidden:  []int{16},
		Workers: 3,
		Servers: 2,
		Epochs:  epochs,
		LR:      0.01,
		Seed:    1,
	}
}

// TestDistributedMatchesSingleMachine is the engine's load-bearing
// correctness test: with no compression, distributed training over three
// workers and two parameter servers must track single-machine full-batch
// training (same seed, same optimiser) almost exactly — the only divergence
// is float32 summation order.
func TestDistributedMatchesSingleMachine(t *testing.T) {
	const epochs = 30
	cfg := coraConfig(epochs)
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := cfg.Dataset
	ref := nn.TrainFullGraph(nn.NewModel(nn.KindGCN, []int{d.NumFeatures(), 16, d.NumClasses}, 1), d, epochs, 0.01)

	for e := 0; e < epochs; e++ {
		if math.Abs(res.Epochs[e].Loss-ref.LossHistory[e]) > 0.02*(1+ref.LossHistory[e]) {
			t.Fatalf("epoch %d: distributed loss %v vs reference %v", e, res.Epochs[e].Loss, ref.LossHistory[e])
		}
	}
	if math.Abs(res.BestVal-ref.BestVal) > 0.02 {
		t.Fatalf("best val %v vs reference %v", res.BestVal, ref.BestVal)
	}
	if res.TestAccuracy < 0.80 {
		t.Fatalf("distributed test accuracy %v too low", res.TestAccuracy)
	}
}

func TestCompressionReducesTraffic(t *testing.T) {
	const epochs = 3
	raw := coraConfig(epochs)
	rawRes, err := Train(raw)
	if err != nil {
		t.Fatal(err)
	}
	cp := coraConfig(epochs)
	cp.Worker = worker.Options{
		FPScheme: worker.SchemeCompress, BPScheme: worker.SchemeCompress,
		FPBits: 2, BPBits: 2,
	}
	cpRes, err := Train(cp)
	if err != nil {
		t.Fatal(err)
	}
	ratio := rawRes.AvgEpochBytes() / cpRes.AvgEpochBytes()
	// Ghost traffic shrinks ~16×, but PS pull/push stays uncompressed, so
	// the overall ratio is lower; it must still be substantial.
	if ratio < 2 {
		t.Fatalf("2-bit compression only reduced traffic %.2fx", ratio)
	}
	if cpRes.Epochs[0].Bytes >= rawRes.Epochs[0].Bytes {
		t.Fatalf("compressed epoch bytes %d not below raw %d", cpRes.Epochs[0].Bytes, rawRes.Epochs[0].Bytes)
	}
}

func TestECMatchesUncompressedAccuracy(t *testing.T) {
	const epochs = 40
	ecCfg := coraConfig(epochs)
	ecCfg.Worker = worker.Options{
		FPScheme: worker.SchemeEC, BPScheme: worker.SchemeEC,
		FPBits: 2, BPBits: 2, Ttr: 10,
	}
	ecRes, err := Train(ecCfg)
	if err != nil {
		t.Fatal(err)
	}
	if ecRes.TestAccuracy < 0.80 {
		t.Fatalf("ReqEC+ResEC at 2 bits reached only %.3f accuracy", ecRes.TestAccuracy)
	}
}

func TestECBeatsCompressOnlyAtLowBits(t *testing.T) {
	// The Fig. 6 phenomenon: at an aggressive bit width, compensation must
	// recover accuracy that compression-only loses.
	const epochs = 40
	cp := coraConfig(epochs)
	cp.Worker = worker.Options{FPScheme: worker.SchemeCompress, BPScheme: worker.SchemeCompress, FPBits: 1, BPBits: 1}
	cpRes, err := Train(cp)
	if err != nil {
		t.Fatal(err)
	}
	ecCfg := coraConfig(epochs)
	ecCfg.Worker = worker.Options{FPScheme: worker.SchemeEC, BPScheme: worker.SchemeEC, FPBits: 1, BPBits: 1, Ttr: 10}
	ecRes, err := Train(ecCfg)
	if err != nil {
		t.Fatal(err)
	}
	if ecRes.BestVal <= cpRes.BestVal {
		t.Fatalf("EC best val %.3f not above compression-only %.3f at 1 bit", ecRes.BestVal, cpRes.BestVal)
	}
}

func TestAdaptiveBitsAdjusts(t *testing.T) {
	cfg := coraConfig(25)
	cfg.Worker = worker.Options{
		FPScheme: worker.SchemeEC, BPScheme: worker.SchemeRaw,
		FPBits: 4, BPBits: 4, AdaptiveBits: true, Ttr: 5,
	}
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for _, e := range res.Epochs {
		for _, b := range e.FPBits {
			if b != 4 {
				changed = true
			}
			if b < 1 || b > 16 {
				t.Fatalf("tuned bits %d out of range", b)
			}
		}
	}
	if !changed {
		t.Logf("bit tuner never moved from 4 bits (acceptable but unusual)")
	}
	if res.TestAccuracy < 0.78 {
		t.Fatalf("adaptive run accuracy %.3f too low", res.TestAccuracy)
	}
}

func TestDelayedAggregationReducesTraffic(t *testing.T) {
	const epochs = 6
	full := coraConfig(epochs)
	fullRes, err := Train(full)
	if err != nil {
		t.Fatal(err)
	}
	delayed := coraConfig(epochs)
	delayed.Worker = worker.Options{DelayRounds: 5}
	delRes, err := Train(delayed)
	if err != nil {
		t.Fatal(err)
	}
	// Skip epoch 0 (cold cache fetches everything); afterwards FP ghost
	// traffic drops to ~1/5.
	if delRes.Epochs[2].Bytes >= fullRes.Epochs[2].Bytes {
		t.Fatalf("delayed epoch bytes %d not below full %d", delRes.Epochs[2].Bytes, fullRes.Epochs[2].Bytes)
	}
}

func TestDelayedAggregationStillLearns(t *testing.T) {
	cfg := coraConfig(40)
	cfg.Worker = worker.Options{DelayRounds: 5}
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAccuracy < 0.75 {
		t.Fatalf("delayed aggregation accuracy %.3f too low", res.TestAccuracy)
	}
}

func TestMetisPartitionerLowersTraffic(t *testing.T) {
	const epochs = 3
	hash := coraConfig(epochs)
	hashRes, err := Train(hash)
	if err != nil {
		t.Fatal(err)
	}
	metis := coraConfig(epochs)
	metis.Partitioner = partition.Metis{}
	metisRes, err := Train(metis)
	if err != nil {
		t.Fatal(err)
	}
	if metisRes.AvgEpochBytes() >= hashRes.AvgEpochBytes() {
		t.Fatalf("metis traffic %.0f not below hash %.0f", metisRes.AvgEpochBytes(), hashRes.AvgEpochBytes())
	}
	if metisRes.PartitionStats.EdgeCut >= hashRes.PartitionStats.EdgeCut {
		t.Fatalf("metis cut %d not below hash %d", metisRes.PartitionStats.EdgeCut, hashRes.PartitionStats.EdgeCut)
	}
}

func TestSAGEKindTrains(t *testing.T) {
	cfg := coraConfig(30)
	cfg.Kind = nn.KindSAGE
	cfg.Worker = worker.Options{FPScheme: worker.SchemeEC, BPScheme: worker.SchemeEC, FPBits: 4, BPBits: 4, Ttr: 10}
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAccuracy < 0.78 {
		t.Fatalf("SAGE accuracy %.3f too low", res.TestAccuracy)
	}
}

// TestOverTCPSockets trains over real loopback sockets and holds the run to
// the in-process network's: the transport is a deployment choice, so every
// epoch's loss and accuracies match bit for bit. Bytes are not compared —
// TCP frames them differently.
func TestOverTCPSockets(t *testing.T) {
	cfg := coraConfig(3)
	cfg.Workers = 2
	cfg.Servers = 1
	cfg.Worker = worker.Options{FPScheme: worker.SchemeEC, BPScheme: worker.SchemeEC, FPBits: 4, BPBits: 4, Ttr: 10}
	inproc, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net, err := transport.NewTCPCluster(cfg.Workers + cfg.Servers)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	cfg.Net = net
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 3 || len(inproc.Epochs) != 3 {
		t.Fatalf("expected 3 epochs each, got %d over TCP and %d in process", len(res.Epochs), len(inproc.Epochs))
	}
	if res.Epochs[0].Bytes == 0 {
		t.Fatalf("no traffic counted over TCP")
	}
	for i, e := range res.Epochs {
		w := inproc.Epochs[i]
		if e.Loss != w.Loss || e.ValAcc != w.ValAcc || e.TestAcc != w.TestAcc {
			t.Fatalf("epoch %d over TCP: loss %v val %v test %v; in process: loss %v val %v test %v",
				i, e.Loss, e.ValAcc, e.TestAcc, w.Loss, w.ValAcc, w.TestAcc)
		}
	}
}

func TestResultBookkeeping(t *testing.T) {
	cfg := coraConfig(10)
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedEpoch < 0 || res.ConvergedEpoch >= 10 {
		t.Fatalf("ConvergedEpoch = %d", res.ConvergedEpoch)
	}
	if res.TotalSimSeconds <= res.PreprocessSeconds {
		t.Fatalf("TotalSimSeconds %v not above preprocessing %v", res.TotalSimSeconds, res.PreprocessSeconds)
	}
	if res.AvgEpochSeconds() <= 0 {
		t.Fatalf("AvgEpochSeconds = %v", res.AvgEpochSeconds())
	}
	if len(res.MemoryFloats) != cfg.Workers {
		t.Fatalf("MemoryFloats per worker missing: %v", res.MemoryFloats)
	}
	for _, e := range res.Epochs {
		if e.SimSeconds != e.ComputeSeconds+e.CommSeconds {
			t.Fatalf("SimSeconds inconsistent")
		}
		if e.MaxNodeBytes > e.Bytes*2 { // max node ≤ total in+out
			t.Fatalf("MaxNodeBytes %d inconsistent with total %d", e.MaxNodeBytes, e.Bytes)
		}
	}
}

func TestMissingDatasetErrors(t *testing.T) {
	if _, err := Train(Config{}); err == nil {
		t.Fatalf("expected error for missing dataset")
	}
}

func TestSingleWorkerNoGhosts(t *testing.T) {
	cfg := coraConfig(5)
	cfg.Workers = 1
	cfg.Servers = 1
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A single worker has no ghost traffic; only PS pull/push remains.
	if res.Epochs[0].Bytes == 0 {
		t.Fatalf("expected PS traffic even with one worker")
	}
	if res.Epochs[4].Loss >= res.Epochs[0].Loss {
		t.Fatalf("single-worker training not learning")
	}
}

func TestEarlyStoppingPatience(t *testing.T) {
	cfg := coraConfig(200)
	cfg.Patience = 5
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) >= 200 {
		t.Fatalf("patience did not stop training early (%d epochs)", len(res.Epochs))
	}
	last := len(res.Epochs) - 1
	if last-res.BestEpoch < 5 {
		t.Fatalf("stopped before patience expired: best %d, last %d", res.BestEpoch, last)
	}
	if res.TestAccuracy < 0.80 {
		t.Fatalf("early-stopped accuracy %.3f too low", res.TestAccuracy)
	}
}

func TestFinalModelMatchesGatheredLogits(t *testing.T) {
	cfg := coraConfig(10)
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalParams) == 0 {
		t.Fatalf("FinalParams missing")
	}
	m, err := FinalModel(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	d := cfg.Dataset
	adj := graph.Normalize(d.Graph)
	logits := m.Forward(adj, d.Features)
	acc := nn.Accuracy(logits.H[len(logits.H)-1], d.Labels, d.TestIdx())
	// The exported model is the post-update state, one step after the last
	// evaluated epoch — accuracy should be in the same ballpark.
	if math.Abs(acc-res.Epochs[len(res.Epochs)-1].TestAcc) > 0.05 {
		t.Fatalf("final model accuracy %.3f far from last epoch %.3f", acc, res.Epochs[len(res.Epochs)-1].TestAcc)
	}
	// Mismatched config must error.
	bad := cfg
	bad.Hidden = []int{99}
	if _, err := FinalModel(bad, res); err == nil {
		t.Fatalf("expected error for mismatched dims")
	}
}

func TestHeterogeneousNodeCosts(t *testing.T) {
	base := coraConfig(3)
	fast, err := Train(base)
	if err != nil {
		t.Fatal(err)
	}
	slow := coraConfig(3)
	// Worker 1 sits behind a link 100x slower than the rest.
	ge := transport.GigabitEthernet()
	crawl := transport.CostModel{LatencySec: ge.LatencySec, BandwidthBytesPerSec: ge.BandwidthBytesPerSec / 100}
	slow.NodeCosts = []transport.CostModel{{}, crawl, {}}
	slowRes, err := Train(slow)
	if err != nil {
		t.Fatal(err)
	}
	if slowRes.Epochs[1].CommSeconds <= 2*fast.Epochs[1].CommSeconds {
		t.Fatalf("slow link did not gate the epoch: %v vs %v",
			slowRes.Epochs[1].CommSeconds, fast.Epochs[1].CommSeconds)
	}
}

func TestOptimizerOptionsPassThrough(t *testing.T) {
	cfg := coraConfig(15)
	cfg.Optim = ps.ServerOptions{MaxGradNorm: 5, LRDecay: 0.99}
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAccuracy < 0.75 {
		t.Fatalf("clipped+decayed run accuracy %.3f", res.TestAccuracy)
	}
}

// methodBytesNet counts the reply bytes of one method's calls between
// distinct nodes.
type methodBytesNet struct {
	transport.Network
	method string
	bytes  atomic.Int64
}

func (n *methodBytesNet) Call(src, dst int, method string, req []byte) ([]byte, error) {
	resp, err := n.Network.Call(src, dst, method, req)
	if err == nil && src != dst && method == n.method {
		n.bytes.Add(int64(len(resp)))
	}
	return resp, err
}

func (n *methodBytesNet) CallMulti(src int, calls []transport.Call) []transport.Result {
	return transport.SequentialMulti(n, src, calls)
}

// TestTopKSchemeTrainsAndReducesTraffic: Top-K error feedback trains to
// accuracy and ships fewer getG bytes per epoch than the raw backward
// exchange. The getG replies are compared, not the epochs' totals: a run raw
// both ways ships its shrinking 16 → 7 layer's getH as H·W (DESIGN.md §10,
// "Narrow side on the exact wire"), where Top-K's run ships H.
func TestTopKSchemeTrainsAndReducesTraffic(t *testing.T) {
	getGPerEpoch := func(cfg Config) (*Result, int64) {
		net := &methodBytesNet{Network: transport.NewInProc(cfg.Workers + cfg.Servers), method: worker.MethodGetG}
		cfg.Net = net
		res, err := Train(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, net.bytes.Load() / int64(cfg.Epochs)
	}
	cfg := coraConfig(30)
	cfg.Worker = worker.Options{BPScheme: worker.SchemeTopK, BPBits: 2}
	res, topK := getGPerEpoch(cfg)
	if res.TestAccuracy < 0.78 {
		t.Fatalf("Top-K EF accuracy %.3f too low", res.TestAccuracy)
	}
	_, raw := getGPerEpoch(coraConfig(3))
	t.Logf("getG replies per epoch: Top-K %d B, raw %d B", topK, raw)
	if topK >= raw {
		t.Fatalf("Top-K getG traffic %d B/epoch not below raw %d", topK, raw)
	}
}
