// Package worker implements EC-Graph's per-node runtime: each worker owns a
// vertex partition, runs forward and backward propagation over its owned
// rows (Algs. 1-2), and exchanges ghost-vertex embeddings and embedding
// gradients with peer workers through the 1-hop Neighbour Access Controller
// — raw, compressed, or error-compensated per the configured scheme.
package worker

import (
	"fmt"
	"sort"

	"ecgraph/internal/graph"
)

// Topology is the partition-derived communication structure shared by all
// workers: who owns which vertices and which ghost rows each worker must
// fetch from every peer. It is computed once at setup and is immutable.
type Topology struct {
	NumWorkers int
	Assign     []int     // global vertex id → owning worker
	Owned      [][]int32 // per worker: sorted owned vertex ids

	// Needs[w][j] lists, sorted by global id, the vertices owned by worker j
	// whose embeddings worker w requires (w's ghost rows served by j).
	// Needs[w][w] is always empty. By symmetry of Â this is also the set j
	// must serve to w, so responders index the same slice.
	Needs [][][]int32
}

// BuildTopology derives the topology from a partition assignment.
func BuildTopology(g *graph.Graph, assign []int, numWorkers int) *Topology {
	if len(assign) != g.N {
		panic(fmt.Sprintf("worker: assignment covers %d of %d vertices", len(assign), g.N))
	}
	t := &Topology{
		NumWorkers: numWorkers,
		Assign:     assign,
		Owned:      make([][]int32, numWorkers),
		Needs:      make([][][]int32, numWorkers),
	}
	for v, w := range assign {
		if w < 0 || w >= numWorkers {
			panic(fmt.Sprintf("worker: vertex %d assigned to invalid worker %d", v, w))
		}
		t.Owned[w] = append(t.Owned[w], int32(v))
	}
	needSets := make([]map[int]map[int32]struct{}, numWorkers)
	for w := range needSets {
		needSets[w] = make(map[int]map[int32]struct{})
	}
	for v := 0; v < g.N; v++ {
		w := assign[v]
		for _, u := range g.Neighbors(v) {
			j := assign[u]
			if j == w {
				continue
			}
			set := needSets[w][j]
			if set == nil {
				set = make(map[int32]struct{})
				needSets[w][j] = set
			}
			set[u] = struct{}{}
		}
	}
	for w := 0; w < numWorkers; w++ {
		t.Needs[w] = make([][]int32, numWorkers)
		for j, set := range needSets[w] {
			lst := make([]int32, 0, len(set))
			for u := range set {
				lst = append(lst, u)
			}
			sort.Slice(lst, func(a, b int) bool { return lst[a] < lst[b] })
			t.Needs[w][j] = lst
		}
	}
	return t
}

// GhostCount returns the total number of ghost vertices worker w caches.
func (t *Topology) GhostCount(w int) int {
	n := 0
	for _, lst := range t.Needs[w] {
		n += len(lst)
	}
	return n
}
