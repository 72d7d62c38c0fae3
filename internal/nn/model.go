// Package nn implements the neural-network side of EC-Graph: one Model type
// for GCN, GraphSAGE and multi-head GAT layers, Glorot initialisation, the
// Adam optimiser, softmax cross-entropy, and a single-machine full-graph
// reference implementation of forward and backward propagation following
// the CAGNET equations the paper adopts (Eqs. 2-6) and, for GAT, the
// attention kernels (Attend, AttendBackward) that the distributed worker
// runs over its own rows.
//
// The distributed engine in internal/core re-derives the same math with
// per-worker communication; the reference here doubles as the standalone
// "DGL/PyG" baseline and as ground truth in the engine's integration tests.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"ecgraph/internal/graph"
	"ecgraph/internal/tensor"
)

// Kind selects the GNN variant.
type Kind int

const (
	// KindGCN is the graph convolutional network of Eq. 2: Z = ÂHW.
	KindGCN Kind = iota
	// KindSAGE is a GraphSAGE variant with a separate self-transform:
	// Z = ÂHW + HW_self (the "GCN aggregator" flavour; the communication
	// pattern is identical to GCN, which is all EC-Graph requires, §III-B).
	KindSAGE
	// KindGAT is the multi-head graph attention network (gat.go), built by
	// NewGAT: aggregation weights come from attention over the graph's
	// structure instead of Â's values (§III-B).
	KindGAT
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindGCN:
		return "gcn"
	case KindSAGE:
		return "sage"
	case KindGAT:
		return "gat"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Layer holds one GNN layer's parameters.
type Layer struct {
	W     *tensor.Matrix // in×out aggregation weights; GAT: in×(heads·dHead), head k in column block k
	WSelf *tensor.Matrix // in×out self weights, nil except for SAGE
	// A1 and A2 are a GAT layer's attention halves (target and source),
	// heads·dHead long in W's column blocks; nil for GCN and SAGE.
	A1, A2 []float32
	Bias   []float32 // length out
}

// Model is a stack of GNN layers.
type Model struct {
	Kind   Kind
	Layers []*Layer
	Dims   []int // len(Layers)+1: input dim, hidden dims..., classes
	Heads  int   // attention heads per GAT layer; 0 for GCN and SAGE
}

// NewModel builds a model with Glorot-uniform weights and zero biases.
// dims is [inputDim, hidden..., numClasses]; seed makes init deterministic.
// KindGAT builds a single-head NewGAT.
func NewModel(kind Kind, dims []int, seed int64) *Model {
	if kind == KindGAT {
		return NewGAT(dims, 1, seed)
	}
	if len(dims) < 2 {
		panic(fmt.Sprintf("nn: need at least 2 dims, got %v", dims))
	}
	rng := rand.New(rand.NewSource(seed))
	m := &Model{Kind: kind, Dims: append([]int(nil), dims...)}
	for l := 0; l+1 < len(dims); l++ {
		layer := &Layer{
			W:    glorot(rng, dims[l], dims[l+1]),
			Bias: make([]float32, dims[l+1]),
		}
		if kind == KindSAGE {
			layer.WSelf = glorot(rng, dims[l], dims[l+1])
		}
		m.Layers = append(m.Layers, layer)
	}
	return m
}

// NumLayers returns the number of GNN layers L.
func (m *Model) NumLayers() int { return len(m.Layers) }

// TransformsFirst reports whether layer l (1-based) computes Â(HW) rather
// than (ÂH)W: the message-aggregating optimisation of §III-A (shared with
// DGL), which aggregates the narrower side when the layer shrinks its
// width. Both orders are exact; every place that orders a layer asks here.
// A GAT layer always transforms inside its attention, so it answers false.
func (m *Model) TransformsFirst(l int) bool { return m.Kind != KindGAT && m.Dims[l-1] > m.Dims[l] }

func glorot(rng *rand.Rand, in, out int) *tensor.Matrix {
	w := tensor.New(in, out)
	bound := float32(math.Sqrt(6 / float64(in+out)))
	for i := range w.Data {
		w.Data[i] = (rng.Float32()*2 - 1) * bound
	}
	return w
}

// ParamCount returns the total number of scalar parameters.
func (m *Model) ParamCount() int {
	n := 0
	for _, l := range m.Layers {
		n += len(l.W.Data) + len(l.A1) + len(l.A2) + len(l.Bias)
		if l.WSelf != nil {
			n += len(l.WSelf.Data)
		}
	}
	return n
}

// FlattenParams serialises all parameters into one vector in a fixed order
// (per layer: W, WSelf, A1, A2, Bias; the nil ones skipped). The parameter
// servers partition this vector by contiguous ranges.
func (m *Model) FlattenParams() []float32 {
	return flatten(m.Layers, make([]float32, 0, m.ParamCount()))
}

func flatten(layers []*Layer, out []float32) []float32 {
	for _, l := range layers {
		out = append(out, l.W.Data...)
		if l.WSelf != nil {
			out = append(out, l.WSelf.Data...)
		}
		out = append(out, l.A1...)
		out = append(out, l.A2...)
		out = append(out, l.Bias...)
	}
	return out
}

// SetFlatParams loads parameters from a vector produced by FlattenParams.
func (m *Model) SetFlatParams(flat []float32) {
	if len(flat) != m.ParamCount() {
		panic(fmt.Sprintf("nn: SetFlatParams length %d != %d", len(flat), m.ParamCount()))
	}
	off := 0
	for _, l := range m.Layers {
		off += copy(l.W.Data, flat[off:off+len(l.W.Data)])
		if l.WSelf != nil {
			off += copy(l.WSelf.Data, flat[off:off+len(l.WSelf.Data)])
		}
		off += copy(l.A1, flat[off:off+len(l.A1)])
		off += copy(l.A2, flat[off:off+len(l.A2)])
		off += copy(l.Bias, flat[off:off+len(l.Bias)])
	}
}

// Gradients mirrors a Model's parameter layout and accumulates gradients.
type Gradients struct {
	Layers []*Layer
}

// NewGradients allocates zeroed gradients shaped like m.
func NewGradients(m *Model) *Gradients {
	g := &Gradients{}
	for _, l := range m.Layers {
		gl := &Layer{
			W:    tensor.New(l.W.Rows, l.W.Cols),
			Bias: make([]float32, len(l.Bias)),
		}
		if l.WSelf != nil {
			gl.WSelf = tensor.New(l.WSelf.Rows, l.WSelf.Cols)
		}
		if l.A1 != nil {
			gl.A1, gl.A2 = make([]float32, len(l.A1)), make([]float32, len(l.A2))
		}
		g.Layers = append(g.Layers, gl)
	}
	return g
}

// Flatten serialises gradients in the same order as Model.FlattenParams.
func (g *Gradients) Flatten() []float32 { return flatten(g.Layers, nil) }

// Activations stores the intermediate state of one forward pass: Z are the
// pre-activations (needed by σ' in BP), H the post-activations with
// H[0] = X.
type Activations struct {
	Z   []*tensor.Matrix // Z[l] for l = 1..L, index l-1
	H   []*tensor.Matrix // H[0] = X, H[l] after layer l
	Att []*Attention     // GAT: layer l's attention trace, index l-1
}

// Forward runs full-graph forward propagation (Alg. 1, single machine):
// Z^l = Â H^{l-1} W^{l-1} (+ H W_self for SAGE), H^l = ReLU(Z^l) except the
// last layer whose logits are returned raw for the loss. A GAT layer's
// aggregation is its attention over adj's structure.
func (m *Model) Forward(adj *graph.NormAdjacency, x *tensor.Matrix) *Activations {
	acts := &Activations{H: []*tensor.Matrix{x}}
	h := x
	for l, layer := range m.Layers {
		var z *tensor.Matrix
		if m.Kind == KindGAT {
			var att *Attention
			z, att = m.Attend(l+1, adj.RowPtr, adj.ColIdx, h)
			acts.Att = append(acts.Att, att)
		} else if m.TransformsFirst(l + 1) {
			z = adj.SpMM(h.MatMul(layer.W))
		} else {
			z = adj.SpMM(h).MatMul(layer.W)
		}
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

// Backward runs full-graph backward propagation per CAGNET Eqs. 4-6 given
// gradOut = ∂L/∂Z^L, returning parameter gradients. Â is symmetric so
// G^{l-1} = Â G^l (W^l)ᵀ ⊙ σ'(Z^{l-1}) and Y^{l-1} = (H^{l-1})ᵀ Â G^l.
func (m *Model) Backward(adj *graph.NormAdjacency, acts *Activations, gradOut *tensor.Matrix) *Gradients {
	grads := NewGradients(m)
	g := gradOut
	for l := len(m.Layers) - 1; l >= 0; l-- {
		if m.Kind == KindGAT {
			if gh := m.AttendBackward(l+1, adj.RowPtr, adj.ColIdx, acts.Att[l], g, grads.Layers[l]); gh != nil {
				g = gh.HadamardInPlace(acts.Z[l-1].ReLUGrad())
			}
			continue
		}
		layer := m.Layers[l]
		hPrev := acts.H[l]
		ag := adj.SpMM(g) // Â G^l, reused by both Y and the next G
		grads.Layers[l].W = hPrev.TMatMul(ag)
		if layer.WSelf != nil {
			grads.Layers[l].WSelf = hPrev.TMatMul(g)
		}
		grads.Layers[l].Bias = g.ColSums()
		if l > 0 {
			gh := ag.MatMulT(layer.W) // Â G^l (W^l)ᵀ
			if layer.WSelf != nil {
				gh.AddInPlace(g.MatMulT(layer.WSelf))
			}
			g = gh.HadamardInPlace(acts.Z[l-1].ReLUGrad())
		}
	}
	return grads
}
