package nn

import (
	"fmt"
	"math"
	"math/rand"

	"ecgraph/internal/tensor"
)

// GAT support. §III-B notes EC-Graph extends beyond GCN: "Graph Attention
// Networks (GAT) fetches embeddings from in-neighbors in FP and embedding
// gradients from out-neighbors in BP" — the same communication topology the
// engine already provides. A GAT layer is a Layer whose W holds the heads'
// transforms side by side (column block k, dHead wide, is head k) and whose
// A1/A2 hold the heads' attention halves in the same blocks. Per head k
// (Velickovic et al. 2018, self-loops included):
//
//	P_k   = H·W_k
//	e_ij  = LeakyReLU(a1_k·P_ki + a2_k·P_kj)   j ∈ N(i) ∪ {i}
//	α_i·  = softmax_j(e_ij)
//	Z_ki  = Σ_j α_ij · P_kj
//
// Hidden layers concatenate the heads' outputs (out dim = heads·dHead) and
// apply ReLU; the output layer averages heads and emits raw logits. A
// shared bias is added to the combined output. The backward pass is
// manual, verified against numerical gradients in gat_test.go.

// leakySlope is the negative-side slope of LeakyReLU in the attention.
const leakySlope = 0.2

// NewGAT builds a GAT with heads attention heads per layer. Hidden dims are
// post-concatenation widths and must be divisible by heads; the output
// layer averages its heads onto the class dimension. Head k's Glorot block
// and attention halves are drawn in head order, W's block before the
// halves, which interleave a1 and a2 entry by entry.
func NewGAT(dims []int, heads int, seed int64) *Model {
	if len(dims) < 2 {
		panic(fmt.Sprintf("nn: need at least 2 dims, got %v", dims))
	}
	if heads < 1 {
		panic(fmt.Sprintf("nn: need at least 1 head, got %d", heads))
	}
	rng := rand.New(rand.NewSource(seed))
	m := &Model{Kind: KindGAT, Dims: append([]int(nil), dims...), Heads: heads}
	for l := 0; l+1 < len(dims); l++ {
		out := dims[l+1]
		dHead := out
		if l+2 < len(dims) {
			if out%heads != 0 {
				panic(fmt.Sprintf("nn: hidden dim %d not divisible by %d heads", out, heads))
			}
			dHead = out / heads
		}
		layer := &Layer{
			W:    tensor.New(dims[l], heads*dHead),
			A1:   make([]float32, heads*dHead),
			A2:   make([]float32, heads*dHead),
			Bias: make([]float32, out),
		}
		bound := float32(math.Sqrt(3 / float64(dHead)))
		for k := 0; k < heads; k++ {
			blk := glorot(rng, dims[l], dHead)
			for r := 0; r < dims[l]; r++ {
				copy(layer.W.Row(r)[k*dHead:], blk.Row(r))
			}
			for i := k * dHead; i < (k+1)*dHead; i++ {
				layer.A1[i] = (rng.Float32()*2 - 1) * bound
				layer.A2[i] = (rng.Float32()*2 - 1) * bound
			}
		}
		m.Layers = append(m.Layers, layer)
	}
	return m
}

// Attention is one GAT layer's forward trace over a CSR, kept for its
// backward pass.
type Attention struct {
	H *tensor.Matrix // the layer's input rows, which the CSR's columns index
	P *tensor.Matrix // H·W: every head's transform, head k in column block k
	// Alpha and Pre hold, per head, each CSR entry's attention coefficient
	// and its logit before the LeakyReLU.
	Alpha, Pre [][]float32
}

// headWidth returns GAT layer l's per-head width (l is 1-based).
func (m *Model) headWidth(l int) int { return m.Layers[l-1].W.Cols / m.Heads }

// Attend computes GAT layer l (1-based) over the CSR rowPtr/colIdx, whose
// n = len(rowPtr)−1 destination rows attend over h's rows and are h's first
// n rows themselves: the whole graph, or a worker's owned rows over its
// owned-then-ghost rows. It returns the combined output before the bias,
// n × Dims[l], and the trace AttendBackward needs. Only the CSR's structure
// is read; attention computes its own weights.
func (m *Model) Attend(l int, rowPtr, colIdx []int32, h *tensor.Matrix) (*tensor.Matrix, *Attention) {
	layer := m.Layers[l-1]
	n, d := len(rowPtr)-1, m.headWidth(l)
	concat := l < m.NumLayers()
	p := h.MatMul(layer.W)
	att := &Attention{H: h, P: p}
	z := tensor.New(n, m.Dims[l])
	zk := z // concatenated heads write their own column block of z
	if !concat {
		zk = tensor.New(n, d)
	}
	s, r := make([]float32, n), make([]float32, h.Rows)
	for k := 0; k < m.Heads; k++ {
		lo := k * d
		a1, a2 := layer.A1[lo:lo+d], layer.A2[lo:lo+d]
		for c := range r {
			prow := p.Row(c)[lo : lo+d]
			var accS, accR float32
			for x, v := range prow {
				accS += a1[x] * v
				accR += a2[x] * v
			}
			r[c] = accR
			if c < n {
				s[c] = accS
			}
		}
		pre, alpha := make([]float32, len(colIdx)), make([]float32, len(colIdx))
		for i := 0; i < n; i++ {
			elo, ehi := rowPtr[i], rowPtr[i+1]
			mx := float32(math.Inf(-1))
			for e := elo; e < ehi; e++ {
				v := s[i] + r[colIdx[e]]
				pre[e] = v
				if v < 0 {
					v *= leakySlope
				}
				alpha[e] = v
				mx = max(mx, v)
			}
			var sum float64
			for e := elo; e < ehi; e++ {
				ex := float32(math.Exp(float64(alpha[e] - mx)))
				alpha[e] = ex
				sum += float64(ex)
			}
			inv := float32(1 / sum)
			for e := elo; e < ehi; e++ {
				alpha[e] *= inv
			}
		}
		att.Pre, att.Alpha = append(att.Pre, pre), append(att.Alpha, alpha)

		off := lo
		if !concat {
			off = 0
		}
		for i := 0; i < n; i++ {
			zrow := zk.Row(i)[off : off+d]
			for e := rowPtr[i]; e < rowPtr[i+1]; e++ {
				a := alpha[e]
				for x, v := range p.Row(int(colIdx[e]))[lo : lo+d] {
					zrow[x] += a * v
				}
			}
		}
		if !concat {
			z.AddScaledInPlace(zk, 1/float32(m.Heads))
			zk.Zero()
		}
	}
	return z, att
}

// AttendBackward backpropagates GAT layer l (1-based) over the CSR of its
// Attend call, given g = ∂L/∂Z over the destination rows. It sets grad's W,
// A1, A2 and Bias to this CSR's share of the layer's gradient and returns
// ∂L/∂H over all of att.H's rows — the destination rows first, then the
// rest, whose partials belong to whoever owns them — or nil at layer 1,
// whose input is the features.
func (m *Model) AttendBackward(l int, rowPtr, colIdx []int32, att *Attention, g *tensor.Matrix, grad *Layer) *tensor.Matrix {
	layer := m.Layers[l-1]
	n, d, src := len(rowPtr)-1, m.headWidth(l), att.H.Rows
	concat := l < m.NumLayers()
	gs := g
	if !concat { // averaged heads: each takes 1/heads of g
		gs = g.Scale(1 / float32(m.Heads))
	}
	dP := tensor.New(src, layer.W.Cols)
	ds, dr := make([]float32, n), make([]float32, src)
	var dAlpha []float32
	for k := 0; k < m.Heads; k++ {
		lo := k * d
		off := lo
		if !concat {
			off = 0
		}
		alpha, pre := att.Alpha[k], att.Pre[k]
		clear(ds)
		clear(dr)
		for i := 0; i < n; i++ {
			elo, ehi := rowPtr[i], rowPtr[i+1]
			grow := gs.Row(i)[off : off+d]
			var inner float64
			dAlpha = dAlpha[:0]
			for e := elo; e < ehi; e++ {
				var dot float32
				for x, v := range att.P.Row(int(colIdx[e]))[lo : lo+d] {
					dot += grow[x] * v
				}
				dAlpha = append(dAlpha, dot)
				inner += float64(alpha[e]) * float64(dot)
			}
			for e := elo; e < ehi; e++ {
				j, a := int(colIdx[e]), alpha[e]
				dprow := dP.Row(j)[lo : lo+d]
				for x, v := range grow {
					dprow[x] += a * v
				}
				de := a * (dAlpha[e-elo] - float32(inner))
				if pre[e] < 0 {
					de *= leakySlope
				}
				ds[i] += de
				dr[j] += de
			}
		}
		a1, a2 := layer.A1[lo:lo+d], layer.A2[lo:lo+d]
		gA1, gA2 := grad.A1[lo:lo+d], grad.A2[lo:lo+d]
		for c := 0; c < src; c++ {
			prow, dprow := att.P.Row(c)[lo:lo+d], dP.Row(c)[lo:lo+d]
			if c < n {
				for x, v := range prow {
					gA1[x] += ds[c] * v
					dprow[x] += ds[c] * a1[x]
				}
			}
			for x, v := range prow {
				gA2[x] += dr[c] * v
				dprow[x] += dr[c] * a2[x]
			}
		}
	}
	grad.W = att.H.TMatMul(dP)
	grad.Bias = g.ColSums()
	if l == 1 {
		return nil
	}
	return dP.MatMulT(layer.W)
}
