package main

import (
	"math/rand"
	"runtime"
	"time"

	"ecgraph/internal/compress"
	"ecgraph/internal/datasets"
	"ecgraph/internal/ec"
	"ecgraph/internal/graph"
	"ecgraph/internal/tensor"
	"ecgraph/internal/worker"
)

// replayFor is how long each kernel is replayed; its result is a mean over
// however many calls fit.
const replayFor = 80 * time.Millisecond

// timeCallsFor calls f until d has passed (at least twice, the first call
// unmeasured) and returns the mean seconds per call.
func timeCallsFor(d time.Duration, f func()) float64 {
	f()
	start := time.Now()
	n := 0
	for n < 1 || time.Since(start) < d {
		f()
		n++
	}
	return time.Since(start).Seconds() / float64(n)
}

// localCSR rebuilds worker id's slice of the normalised adjacency the way
// worker.New lays it out: owned rows, columns in compact local indexing
// with owned vertices first and ghosts after them, grouped by owner.
func localCSR(adj *graph.NormAdjacency, topo *worker.Topology, id int) (a *graph.LocalCSR, ghosts int) {
	owned := topo.Owned[id]
	pos := make(map[int32]int32, len(owned))
	for i, v := range owned {
		pos[v] = int32(i)
	}
	for _, need := range topo.Needs[id] {
		for _, u := range need {
			pos[u] = int32(len(owned) + ghosts)
			ghosts++
		}
	}
	rowPtr := make([]int32, len(owned)+1)
	var colIdx []int32
	var val []float32
	for i, v := range owned {
		for p := adj.RowPtr[v]; p < adj.RowPtr[v+1]; p++ {
			colIdx = append(colIdx, pos[adj.ColIdx[p]])
			val = append(val, adj.Val[p])
		}
		rowPtr[i+1] = int32(len(colIdx))
	}
	return graph.NewLocalCSR(len(owned), rowPtr, colIdx, val), ghosts
}

// randMatrix fills a rows×cols matrix with values in [0,1): the range of
// post-ReLU embeddings the codecs are tuned for.
func randMatrix(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float32()
	}
	return m
}

// replayKernels calls each compute layer's public functions directly on
// operands shaped like worker 0's in this workload and reports their speed.
// The exchanged width is the first hidden layer's, the one every workload
// ships most of. Each kernel is replayed for the duration each.
func replayKernels(w workload, d *datasets.Dataset, adj *graph.NormAdjacency, topo *worker.Topology, each time.Duration, out map[string]float64) {
	timeCalls := func(f func()) float64 { return timeCallsFor(each, f) }
	rng := rand.New(rand.NewSource(1))
	a, ghosts := localCSR(adj, topo, 0)
	owned := a.NumRows()
	cols := w.Hidden[0]
	var nnzOwned, nnzGhost int
	for i := 0; i < owned; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if int(a.ColIdx[p]) < owned {
				nnzOwned++
			} else {
				nnzGhost++
			}
		}
	}
	gflops := func(flops int, seconds float64) float64 { return float64(flops) / seconds / 1e9 }

	// graph: the owned half, and the ghost half in its packed and dense forms.
	h := randMatrix(rng, owned, cols)
	acc := tensor.New(owned, cols)
	out["graph.spmm_owned_gflops"] = gflops(2*nnzOwned*cols, timeCalls(func() { a.SpMMOwnedInto(h, acc) }))
	ghostH := randMatrix(rng, ghosts, cols)
	packed := graph.NewGhostHybrid(ghosts, cols)
	packed.SetRowsPacked(0, compress.Compress(ghostH, w.QuantBits).Block())
	arena := tensor.NewArena(0)
	fold := func() {
		arena.Reset()
		a.SpMMGhostCompactPacked(packed, arena)
	}
	out["graph.spmm_ghost_packed_gflops"] = gflops(2*nnzGhost*cols, timeCalls(fold))
	out["graph.spmm_ghost_dense_gflops"] = gflops(2*nnzGhost*cols, timeCalls(func() { a.SpMMGhostCompact(ghostH) }))
	var before, after runtime.MemStats
	const folds = 20
	runtime.ReadMemStats(&before)
	for i := 0; i < folds; i++ {
		fold()
	}
	runtime.ReadMemStats(&after)
	out["graph.fold_allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / folds

	// tensor: the three dense products of every layer, at that layer's shape.
	dims := modelDims(w, d)
	var flops [3]int
	var secs [3]float64
	for l := 1; l < len(dims); l++ {
		in, width := dims[l-1], dims[l]
		ah := randMatrix(rng, owned, in)
		wt := randMatrix(rng, in, width)
		g := randMatrix(rng, owned, width)
		flops[0] += 2 * owned * in * width
		secs[0] += timeCalls(func() { ah.MatMul(wt) })
		flops[1] += 2 * owned * in * width
		secs[1] += timeCalls(func() { ah.TMatMul(g) })
		if l >= 2 { // layer 1 propagates no gradient further down
			flops[2] += 2 * owned * in * width
			secs[2] += timeCalls(func() { g.MatMulT(wt) })
		}
	}
	out["tensor.matmul_gflops"] = gflops(flops[0], secs[0])
	out["tensor.tmatmul_gflops"] = gflops(flops[1], secs[1])
	out["tensor.matmult_gflops"] = gflops(flops[2], secs[2])

	// compress: one peer's worth of exchanged rows.
	peerRows := ghosts
	if peers := w.Workers - 1; peers > 1 {
		peerRows /= peers
	}
	rows := randMatrix(rng, peerRows, cols)
	mb := float64(len(rows.Data)*4) / 1e6
	out["compress.quantize_mb_s"] = mb / timeCalls(func() { compress.Compress(rows, w.QuantBits).Release() })
	q := compress.Compress(rows, w.QuantBits)
	dense := tensor.New(peerRows, cols)
	out["compress.dequant_mb_s"] = mb / timeCalls(func() { q.DecompressInto(dense) })
	blocked := q.Block()
	dst := make([]float32, cols)
	out["compress.block_accum_ns_per_row"] = 1e9 / float64(peerRows) * timeCalls(func() {
		for r := 0; r < peerRows; r++ {
			blocked.AccumRow(dst, 0.5, r)
		}
	})

	// ec: a responder/requester pair over rows that drift a little every
	// round, as embeddings do between epochs; two trend groups establish the
	// changing-rate matrix before anything is timed, and the timed rounds
	// keep the program's mix of nine selected rounds to one exact boundary.
	drift := randMatrix(rng, peerRows, cols).ScaleInPlace(0.01)
	resp, req := ec.NewForwardResponder(ttr), ec.NewForwardRequester(ttr)
	cur := rows.Clone()
	var respS, parseS float64
	rounds := 0
	for start := time.Now(); rounds <= 2*ttr || time.Since(start) < 2*each; rounds++ {
		cur.AddInPlace(drift)
		t0 := time.Now()
		payload, _ := resp.Respond(cur, rounds, w.QuantBits)
		t1 := time.Now()
		req.Parse(payload, rounds)
		if rounds == 2*ttr-1 {
			start, respS, parseS = time.Now(), 0, 0
			continue
		}
		respS += t1.Sub(t0).Seconds()
		parseS += time.Since(t1).Seconds()
	}
	timedRounds := float64(rounds - 2*ttr)
	perKRow := func(seconds float64) float64 { return seconds * 1e6 / (float64(peerRows) / 1e3) }
	out["ec.fp_respond_us_per_krow"] = perKRow(respS / timedRounds)
	out["ec.fp_parse_us_per_krow"] = perKRow(parseS / timedRounds)
	bp := ec.NewBackwardResponder()
	grad := randMatrix(rng, peerRows, dims[len(dims)-1]).ScaleInPlace(1e-3)
	out["ec.bp_respond_us_per_krow"] = perKRow(timeCalls(func() { bp.Respond(grad, w.QuantBits) }))
}

// replaySetup times the two set-up stages that have a public entry point of
// their own, on the workload's graph.
func replaySetup(w workload, d *datasets.Dataset, out map[string]float64) (assign []int, topo *worker.Topology) {
	start := time.Now()
	assign = w.Partitioner.Partition(d.Graph, w.Workers)
	out["partition.partition_ms"] = ms(time.Since(start))
	start = time.Now()
	topo = worker.BuildTopology(d.Graph, assign, w.Workers)
	out["worker.topology_ms"] = ms(time.Since(start))
	rows := 0
	for id := 0; id < w.Workers; id++ {
		rows += topo.GhostCount(id)
	}
	out["partition.ghost_rows"] = float64(rows)
	return assign, topo
}
