package worker

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ecgraph/internal/graph"
	"ecgraph/internal/nn"
	"ecgraph/internal/tensor"
)

// pathGraph builds 0-1-2-3-4-5 assigned alternately to two workers.
func pathTopo() (*graph.Graph, *Topology) {
	g := graph.FromEdges(6, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	assign := []int{0, 1, 0, 1, 0, 1}
	return g, BuildTopology(g, assign, 2)
}

func TestBuildTopologyOwnership(t *testing.T) {
	_, topo := pathTopo()
	if len(topo.Owned[0]) != 3 || len(topo.Owned[1]) != 3 {
		t.Fatalf("owned sizes %d/%d", len(topo.Owned[0]), len(topo.Owned[1]))
	}
	want0 := []int32{0, 2, 4}
	for i, v := range want0 {
		if topo.Owned[0][i] != v {
			t.Fatalf("Owned[0] = %v", topo.Owned[0])
		}
	}
}

func TestBuildTopologyNeeds(t *testing.T) {
	_, topo := pathTopo()
	// Worker 0 owns {0,2,4}; every neighbour (1,3,5) is on worker 1.
	need := topo.Needs[0][1]
	want := []int32{1, 3, 5}
	if len(need) != len(want) {
		t.Fatalf("Needs[0][1] = %v", need)
	}
	for i := range want {
		if need[i] != want[i] {
			t.Fatalf("Needs[0][1] = %v, want %v", need, want)
		}
	}
	if len(topo.Needs[0][0]) != 0 || len(topo.Needs[1][1]) != 0 {
		t.Fatalf("self needs must be empty")
	}
}

func TestBuildTopologySymmetry(t *testing.T) {
	// For an undirected graph, what w needs from j equals what j serves w;
	// both derive from cut edges, so Needs[w][j] vertices must all be
	// adjacent to w's vertices.
	g, topo := pathTopo()
	for w := 0; w < 2; w++ {
		for j := 0; j < 2; j++ {
			for _, u := range topo.Needs[w][j] {
				if topo.Assign[u] != j {
					t.Fatalf("needed vertex %d not owned by %d", u, j)
				}
				adjacent := false
				for _, v := range topo.Owned[w] {
					if g.HasEdge(int(v), int(u)) {
						adjacent = true
					}
				}
				if !adjacent {
					t.Fatalf("needed vertex %d not adjacent to worker %d", u, w)
				}
			}
		}
	}
}

func TestGhostCountAndRemoteDegree(t *testing.T) {
	_, topo := pathTopo()
	if topo.GhostCount(0) != 3 || topo.GhostCount(1) != 3 {
		t.Fatalf("ghost counts %d/%d", topo.GhostCount(0), topo.GhostCount(1))
	}
}

func TestBuildTopologyPanicsOnBadAssignment(t *testing.T) {
	g := graph.FromEdges(3, [][2]int32{{0, 1}})
	for _, assign := range [][]int{{0, 1}, {0, 1, 9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %v", assign)
				}
			}()
			BuildTopology(g, assign, 2)
		}()
	}
}

func TestMatStorePutWait(t *testing.T) {
	s := newMatStore(3)
	m := tensor.New(2, 2)
	done := make(chan *tensor.Matrix, 1)
	go func() { done <- s.Wait(1, 0) }()
	select {
	case <-done:
		t.Fatalf("Wait returned before Put")
	case <-time.After(10 * time.Millisecond):
	}
	s.Put(1, 0, m)
	if got := <-done; got != m {
		t.Fatalf("Wait returned wrong matrix")
	}
}

func TestMatStoreStalePanics(t *testing.T) {
	s := newMatStore(2)
	s.Put(0, 5, tensor.New(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on stale request")
		}
	}()
	s.Wait(0, 3)
}

func TestMatStoreConcurrentWaiters(t *testing.T) {
	s := newMatStore(1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Wait(0, 2)
		}()
	}
	s.Put(0, 0, tensor.New(1, 1))
	s.Put(0, 1, tensor.New(1, 1))
	s.Put(0, 2, tensor.New(1, 1))
	wg.Wait()
}

func TestSchemeString(t *testing.T) {
	if SchemeRaw.String() != "raw" || SchemeCompress.String() != "compress" || SchemeEC.String() != "ec" {
		t.Fatalf("Scheme names wrong")
	}
	if Scheme(9).String() == "" {
		t.Fatalf("unknown scheme must still render")
	}
}

func TestNewPanicsOnDelayedWithCompression(t *testing.T) {
	g, topo := pathTopo()
	adj := graph.Normalize(g)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	New(Config{
		ID: 0, Topo: topo, Adj: adj,
		Feats:  tensor.New(6, 4),
		Labels: make([]int, 6), TrainMask: make([]bool, 6),
		Model: nn.NewModel(nn.KindGCN, []int{4, 3, 2}, 1),
		Opts:  Options{DelayRounds: 5, FPScheme: SchemeCompress},
	})
}

func TestRefreshPositionsCoverAllWithinDelayRounds(t *testing.T) {
	g, topo := pathTopo()
	adj := graph.Normalize(g)
	w := New(Config{
		ID: 0, Topo: topo, Adj: adj,
		Feats:  tensor.New(6, 4),
		Labels: make([]int, 6), TrainMask: make([]bool, 6),
		Model: nn.NewModel(nn.KindGCN, []int{4, 3, 2}, 1),
		Opts:  Options{DelayRounds: 3},
	})
	// Epoch 0 refreshes everything.
	if got := w.refreshPositions(1, 0); len(got) != 3 {
		t.Fatalf("epoch 0 refresh = %v, want all 3", got)
	}
	// Over any r consecutive epochs ≥ 1, every position refreshes exactly once.
	counts := make(map[int32]int)
	for epoch := 1; epoch <= 3; epoch++ {
		for _, p := range w.refreshPositions(1, epoch) {
			counts[p]++
		}
	}
	for p := int32(0); p < 3; p++ {
		if counts[p] != 1 {
			t.Fatalf("position %d refreshed %d times in one delay window", p, counts[p])
		}
	}
}

func TestWorkerLocalStructures(t *testing.T) {
	g, topo := pathTopo()
	adj := graph.Normalize(g)
	feats := tensor.New(6, 4)
	for i := range feats.Data {
		feats.Data[i] = float32(i)
	}
	labels := []int{0, 1, 0, 1, 0, 1}
	mask := []bool{true, false, true, false, false, false}
	w := New(Config{
		ID: 0, Topo: topo, Adj: adj,
		Feats: feats, Labels: labels, TrainMask: mask,
		NumTrainGlobal: 2,
		Model:          nn.NewModel(nn.KindGCN, []int{4, 3, 2}, 1),
	})
	if w.NumOwned() != 3 || w.NumGhosts() != 3 {
		t.Fatalf("owned/ghosts = %d/%d", w.NumOwned(), w.NumGhosts())
	}
	// Owned features must be rows 0, 2, 4 of the global matrix.
	for i, v := range []int{0, 2, 4} {
		for j := 0; j < 4; j++ {
			if w.x.At(i, j) != feats.At(v, j) {
				t.Fatalf("owned feature row %d mismatched", i)
			}
		}
	}
	if w.nTrain != 2 {
		t.Fatalf("owned train count = %d, want 2", w.nTrain)
	}
	if w.FPBits() != 0 {
		t.Fatalf("fixed FPBits = %d, want 0 (unset)", w.FPBits())
	}
}

func TestLocalAdjSpMMMatchesGlobal(t *testing.T) {
	g, topo := pathTopo()
	adj := graph.Normalize(g)
	feats := tensor.New(6, 3)
	for i := range feats.Data {
		feats.Data[i] = float32(i%5) * 0.25
	}
	w := New(Config{
		ID: 0, Topo: topo, Adj: adj,
		Feats:  feats,
		Labels: make([]int, 6), TrainMask: make([]bool, 6),
		Model: nn.NewModel(nn.KindGCN, []int{3, 2}, 1),
	})
	// Build hcat manually: owned rows {0,2,4} then ghosts {1,3,5}.
	hcat := tensor.New(6, 3)
	order := []int{0, 2, 4, 1, 3, 5}
	for i, v := range order {
		copy(hcat.Row(i), feats.Row(v))
	}
	got := w.adj.SpMM(hcat)
	want := adj.SpMM(feats)
	for i, v := range []int{0, 2, 4} {
		for j := 0; j < 3; j++ {
			if d := got.At(i, j) - want.At(v, j); d > 1e-6 || d < -1e-6 {
				t.Fatalf("spmm row %d col %d: %v vs %v", i, j, got.At(i, j), want.At(v, j))
			}
		}
	}

}

// TestBuildTopologyCoversAllCutEdges: under random partitions, every remote
// neighbour of every owned vertex appears in exactly the right Needs set,
// and the topology's remote degree matches the partition analysis.
func TestBuildTopologyCoversAllCutEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(60)
		edges := make([][2]int32, 3*n)
		for i := range edges {
			edges[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
		}
		g := graph.FromEdges(n, edges)
		k := 2 + rng.Intn(4)
		assign := make([]int, n)
		for v := range assign {
			assign[v] = rng.Intn(k)
		}
		topo := BuildTopology(g, assign, k)
		for v := 0; v < n; v++ {
			w := assign[v]
			for _, u := range g.Neighbors(v) {
				j := assign[u]
				if j == w {
					continue
				}
				found := false
				for _, x := range topo.Needs[w][j] {
					if x == u {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestTopologyRemoteDegreeMatchesDedupedCut cross-checks the ghost counts,
// whose sum over workers is the remote degree ḡ_rmt times the vertex count,
// against a direct count of distinct (worker, remote vertex) pairs.
func TestTopologyRemoteDegreeMatchesDedupedCut(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := 80
	edges := make([][2]int32, 240)
	for i := range edges {
		edges[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	g := graph.FromEdges(n, edges)
	assign := make([]int, n)
	for v := range assign {
		assign[v] = v % 3
	}
	topo := BuildTopology(g, assign, 3)
	type pair struct {
		w int
		u int32
	}
	distinct := map[pair]bool{}
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			if assign[v] != assign[u] {
				distinct[pair{assign[v], u}] = true
			}
		}
	}
	got := 0
	for w := 0; w < 3; w++ {
		got += topo.GhostCount(w)
	}
	if got != len(distinct) {
		t.Fatalf("ghost rows %d, want %d distinct remote neighbours", got, len(distinct))
	}
}
