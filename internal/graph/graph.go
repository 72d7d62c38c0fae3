// Package graph provides the compressed-sparse-row graph representation,
// the GCN adjacency normalisation Â = D^{-1/2}(A+I)D^{-1/2}, and the
// parallel sparse-dense multiplication used by every GNN layer.
//
// Graphs are treated as undirected (the datasets in the paper are), stored
// as a symmetric CSR with explicit self-loops added during normalisation.
package graph

import (
	"fmt"
	"math"
	"sort"

	"ecgraph/internal/tensor"
)

// Graph is an immutable undirected graph in CSR form.
type Graph struct {
	N       int     // number of vertices
	RowPtr  []int32 // len N+1
	ColIdx  []int32 // len = number of directed edges (2|E| for undirected)
	degrees []int32 // cached degree (without self-loop) per vertex
}

// NumEdges returns the number of undirected edges (each stored twice).
func (g *Graph) NumEdges() int { return len(g.ColIdx) / 2 }

// Degree returns the degree of vertex v (self-loops excluded).
func (g *Graph) Degree(v int) int { return int(g.degrees[v]) }

// AvgDegree returns the mean vertex degree.
func (g *Graph) AvgDegree() float64 {
	if g.N == 0 {
		return 0
	}
	return float64(len(g.ColIdx)) / float64(g.N)
}

// Neighbors returns the adjacency list of v as a shared slice; callers must
// not modify it.
func (g *Graph) Neighbors(v int) []int32 {
	return g.ColIdx[g.RowPtr[v]:g.RowPtr[v+1]]
}

// FromEdges builds an undirected CSR graph over n vertices from an edge
// list. Duplicate edges and self-loops in the input are dropped; each kept
// edge is stored in both directions.
func FromEdges(n int, edges [][2]int32) *Graph {
	type pair = [2]int32
	seen := make(map[pair]struct{}, len(edges))
	deg := make([]int32, n)
	kept := make([]pair, 0, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v || u < 0 || v < 0 || int(u) >= n || int(v) >= n {
			continue
		}
		if u > v {
			u, v = v, u
		}
		k := pair{u, v}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		kept = append(kept, k)
		deg[u]++
		deg[v]++
	}
	rowPtr := make([]int32, n+1)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = rowPtr[i] + deg[i]
	}
	colIdx := make([]int32, rowPtr[n])
	cursor := make([]int32, n)
	copy(cursor, rowPtr[:n])
	for _, e := range kept {
		u, v := e[0], e[1]
		colIdx[cursor[u]] = v
		cursor[u]++
		colIdx[cursor[v]] = u
		cursor[v]++
	}
	// Sort each adjacency list for deterministic iteration and binary search.
	for v := 0; v < n; v++ {
		lst := colIdx[rowPtr[v]:rowPtr[v+1]]
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
	}
	return &Graph{N: n, RowPtr: rowPtr, ColIdx: colIdx, degrees: deg}
}

// HasEdge reports whether the undirected edge {u,v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	lst := g.Neighbors(u)
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= int32(v) })
	return i < len(lst) && lst[i] == int32(v)
}

// NormAdjacency is the normalised adjacency Â = D^{-1/2}(A+I)D^{-1/2} in CSR
// form with weights; Â is symmetric so Âᵀ = Â and the forward aggregation
// Z = ÂᵀH W can reuse the same structure in both propagation directions.
type NormAdjacency struct {
	N      int
	RowPtr []int32
	ColIdx []int32
	Val    []float32
}

// Normalize computes Â = D^{-1/2}(A+I)D^{-1/2} with self-loops included in
// the degree, as in Kipf & Welling's GCN.
func Normalize(g *Graph) *NormAdjacency {
	n := g.N
	invSqrt := make([]float32, n)
	for v := 0; v < n; v++ {
		invSqrt[v] = float32(1 / math.Sqrt(float64(g.Degree(v)+1)))
	}
	rowPtr := make([]int32, n+1)
	for v := 0; v < n; v++ {
		rowPtr[v+1] = rowPtr[v] + int32(g.Degree(v)) + 1 // +1 self-loop
	}
	colIdx := make([]int32, rowPtr[n])
	val := make([]float32, rowPtr[n])
	for v := 0; v < n; v++ {
		out := rowPtr[v]
		placedSelf := false
		for _, u := range g.Neighbors(v) {
			if !placedSelf && int(u) > v {
				colIdx[out] = int32(v)
				val[out] = invSqrt[v] * invSqrt[v]
				out++
				placedSelf = true
			}
			colIdx[out] = u
			val[out] = invSqrt[v] * invSqrt[u]
			out++
		}
		if !placedSelf {
			colIdx[out] = int32(v)
			val[out] = invSqrt[v] * invSqrt[v]
			out++
		}
		if out != rowPtr[v+1] {
			panic(fmt.Sprintf("graph: normalise row %d fill mismatch", v))
		}
	}
	return &NormAdjacency{N: n, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

// SpMM computes Â·H (sparse × dense), parallelised over row bands. H must
// have Â.N rows. Each output row is one tensor.AxpyGather over the row's
// entries in CSR order, every product rounded before its add — the one
// summation contract the workers' split products keep, on every GOARCH.
func (a *NormAdjacency) SpMM(h *tensor.Matrix) *tensor.Matrix {
	if h.Rows != a.N {
		panic(fmt.Sprintf("graph: SpMM dimension mismatch: adjacency %d vs H rows %d", a.N, h.Rows))
	}
	out := tensor.New(a.N, h.Cols)
	cols := h.Cols
	tensor.ParallelRows(a.N, len(a.Val)*cols, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			p, q := a.RowPtr[v], a.RowPtr[v+1]
			tensor.AxpyGather(out.Data[v*cols:(v+1)*cols], a.Val[p:q], a.ColIdx[p:q], h.Data, 0, cols)
		}
	})
	return out
}
