// Package baselines implements the comparison systems of the paper's
// evaluation (§V-A) on the same substrate as EC-Graph, so measured
// differences isolate the algorithms:
//
//   - DGL / PyG        — single-machine full-batch training (standalone.go);
//     DGL uses the CSR SpMM kernel with the matmul-order
//     optimisation, PyG an edgewise gather/scatter path,
//     mirroring their relative CPU performance.
//   - DistGNN          — EC-Graph's engine with delayed remote partial
//     aggregation (r=5) and no compression (systems.go).
//   - DistDGL          — graph-centered online sampling: per-epoch resampled
//     L-hop blocks with per-epoch remote feature fetches.
//   - AGL              — ML-centered pre-sampled blocks whose vectorisation
//     is redone every epoch (GraphFlat not overlapped).
//   - AliGraph-FG      — ML-centered full L-hop cached blocks: zero per-epoch
//     graph traffic, heavy redundant compute.
//   - EC-Graph-S       — EC-Graph's sampling mode: pre-sampled blocks,
//     vectorised once, features fetched compressed.
//
// AGL and DistGNN are not open source; like the paper (§V-A), they are
// re-implemented from their descriptions.
package baselines

import (
	"time"

	"ecgraph/internal/core"
	"ecgraph/internal/datasets"
	"ecgraph/internal/graph"
	"ecgraph/internal/nn"
	"ecgraph/internal/tensor"
)

// StandaloneKernel selects the aggregation implementation.
type StandaloneKernel int

const (
	// KernelDGL uses the parallel CSR SpMM with the matmul-order
	// optimisation — the fast path.
	KernelDGL StandaloneKernel = iota
	// KernelPyG uses a sequential per-edge gather/scatter, mirroring PyG's
	// message-object overhead on CPU.
	KernelPyG
)

// Standalone trains on a single machine in full-batch mode and reports
// per-epoch wall times in core.Result form (CommSeconds stays zero).
func Standalone(d *datasets.Dataset, kind nn.Kind, hidden []int, epochs int, lr float64, seed int64, kernel StandaloneKernel) *core.Result {
	dims := append([]int{d.NumFeatures()}, hidden...)
	dims = append(dims, d.NumClasses)
	model := nn.NewModel(kind, dims, seed)
	adj := graph.Normalize(d.Graph)
	flat := model.FlattenParams()
	opt := nn.NewAdam(lr, len(flat))
	valIdx, testIdx := d.ValIdx(), d.TestIdx()

	res := &core.Result{}
	for t := 0; t < epochs; t++ {
		start := time.Now()
		var acts *nn.Activations
		if kernel == KernelPyG {
			acts = forwardEdgewise(model, adj, d.Features)
		} else {
			acts = model.Forward(adj, d.Features)
		}
		logits := acts.H[len(acts.H)-1]
		loss, gradOut := nn.SoftmaxCrossEntropy(logits, d.Labels, d.TrainMask)
		grads := model.Backward(adj, acts, gradOut)
		opt.Step(flat, grads.Flatten())
		model.SetFlatParams(flat)
		wall := time.Since(start).Seconds()
		res.Record(t, core.EpochStats{
			ComputeSeconds:    wall,
			RawComputeSeconds: wall,
			SimSeconds:        wall,
			Loss:              loss,
			ValAcc:            nn.Accuracy(logits, d.Labels, valIdx),
			TestAcc:           nn.Accuracy(logits, d.Labels, testIdx),
		})
	}
	res.Finish(0)
	res.MemoryFloats = []int64{int64(d.Graph.N) * int64(d.NumFeatures())}
	return res
}

// forwardEdgewise runs the forward pass with a sequential per-edge
// gather/scatter aggregation — PyG's message-passing abstraction cost.
func forwardEdgewise(m *nn.Model, adj *graph.NormAdjacency, x *tensor.Matrix) *nn.Activations {
	acts := &nn.Activations{H: []*tensor.Matrix{x}}
	h := x
	for l, layer := range m.Layers {
		agg := tensor.New(adj.N, h.Cols)
		for v := 0; v < adj.N; v++ {
			orow := agg.Row(v)
			for p := adj.RowPtr[v]; p < adj.RowPtr[v+1]; p++ {
				u, wgt := adj.ColIdx[p], adj.Val[p]
				// Materialise the message like PyG's scatter path does.
				msg := make([]float32, h.Cols)
				hrow := h.Row(int(u))
				for j := range msg {
					msg[j] = wgt * hrow[j]
				}
				for j := range orow {
					orow[j] += msg[j]
				}
			}
		}
		z := agg.MatMul(layer.W)
		if layer.WSelf != nil {
			z.AddInPlace(h.MatMul(layer.WSelf))
		}
		z.AddRowVector(layer.Bias)
		acts.Z = append(acts.Z, z)
		if l == len(m.Layers)-1 {
			h = z
		} else {
			h = z.ReLU()
		}
		acts.H = append(acts.H, h)
	}
	return acts
}
