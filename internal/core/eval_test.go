package core

import (
	"math"
	"math/rand"
	"testing"

	"ecgraph/internal/datasets"
	"ecgraph/internal/nn"
	"ecgraph/internal/tensor"
)

// workerRows is one worker's share of an epoch's logits: row k holds
// vertex ids[k], as Worker.Logits returns them.
type workerRows struct {
	ids    []int32
	logits *tensor.Matrix
}

// gather assembles the global logits matrix from the workers' owned rows,
// the way the engine did before evaluation moved onto the workers; it is
// the oracle the per-worker counts are held to.
func gather(parts []workerRows, n, classes int) *tensor.Matrix {
	out := tensor.New(n, classes)
	for _, p := range parts {
		for k, id := range p.ids {
			copy(out.Row(int(id)), p.logits.Row(k))
		}
	}
	return out
}

// split deals the rows of a global logits matrix to workers by owner[v],
// each worker's ids in the order given.
func split(global *tensor.Matrix, owner []int, workers int, order []int) []workerRows {
	parts := make([]workerRows, workers)
	for _, v := range order {
		p := &parts[owner[v]]
		p.ids = append(p.ids, int32(v))
	}
	for i := range parts {
		p := &parts[i]
		p.logits = tensor.New(len(p.ids), global.Cols)
		for k, id := range p.ids {
			copy(p.logits.Row(k), global.Row(int(id)))
		}
	}
	return parts
}

// evalOnWorkers is the engine's evaluation: countHits on every worker, the
// counts summed, and nn.HitRate of each split.
func evalOnWorkers(d *datasets.Dataset, parts []workerRows) (val, test float64, nonFinite bool) {
	var hits evalCount
	for _, p := range parts {
		c := countHits(d, p.ids, p.logits)
		hits.val += c.val
		hits.test += c.test
		hits.nonFinite = hits.nonFinite || c.nonFinite
	}
	return nn.HitRate(hits.val, len(d.ValIdx())), nn.HitRate(hits.test, len(d.TestIdx())), hits.nonFinite
}

// checkAgainstGather holds the per-worker evaluation to nn.Accuracy over
// the gathered matrix, bit for bit.
func checkAgainstGather(t *testing.T, d *datasets.Dataset, parts []workerRows) {
	t.Helper()
	global := gather(parts, len(d.Labels), d.NumClasses)
	val, test, _ := evalOnWorkers(d, parts)
	if want := nn.Accuracy(global, d.Labels, d.ValIdx()); val != want {
		t.Fatalf("val accuracy %v on the workers, %v over the gathered logits", val, want)
	}
	if want := nn.Accuracy(global, d.Labels, d.TestIdx()); test != want {
		t.Fatalf("test accuracy %v on the workers, %v over the gathered logits", test, want)
	}
}

// TestEvalOnWorkersMatchesGather crafts the cases the per-worker count must
// get right: a tie, a NaN row (counted, and flagged non-finite so the
// numeric guard trips), a vertex in both the val and the test mask, and an
// empty split.
func TestEvalOnWorkersMatchesGather(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	d := &datasets.Dataset{
		NumClasses: 3,
		Labels:     []int{0, 1, 2, 0, 1, 2},
		ValMask:    []bool{true, true, false, true, false, false},
		TestMask:   []bool{false, true, true, false, true, true},
	}
	global := tensor.FromSlice(6, 3, []float32{
		5, 5, 1, // 0 val: a tie goes to class 0, a hit
		0, 2, 1, // 1 val and test: a hit in both
		1, 0, 3, // 2 test: a hit
		nan, 1, 0, // 3 val: NaN at index 0 keeps class 0, a hit
		4, nan, 2, // 4 test: a later NaN never wins, a miss
		1, 1, 0, // 5 test: a tie goes to class 0, a miss
	})
	deal := func() []workerRows { return split(global, []int{1, 0, 1, 0, 1, 0}, 2, []int{5, 3, 1, 4, 2, 0}) }
	checkAgainstGather(t, d, deal())
	val, test, nonFinite := evalOnWorkers(d, deal())
	if val != 1 || test != 0.5 || !nonFinite {
		t.Fatalf("val %v test %v non-finite %v, want 1, 0.5 and true", val, test, nonFinite)
	}
	for _, c := range []struct {
		at        int
		x         float32
		nonFinite bool
	}{
		{3 * 3, 1, true},      // vertex 4 still holds a NaN
		{4*3 + 1, -inf, true}, // and now an infinity in its place
		{4*3 + 1, 0, false},   // every logit finite
	} {
		global.Data[c.at] = c.x
		if _, _, nonFinite := evalOnWorkers(d, deal()); nonFinite != c.nonFinite {
			t.Fatalf("logit %d set to %v: non-finite %v, want %v", c.at, c.x, nonFinite, c.nonFinite)
		}
	}

	empty := *d
	empty.ValMask = make([]bool, 6)
	checkAgainstGather(t, &empty, deal())
	if val, _, _ := evalOnWorkers(&empty, deal()); val != 0 {
		t.Fatalf("empty val split: accuracy %v, want 0", val)
	}
}

// TestEvalOnWorkersMatchesGatherRandom draws logits from a few levels, so
// ties are common, with an occasional NaN, over random overlapping masks
// and random ownership.
func TestEvalOnWorkersMatchesGatherRandom(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, classes, workers := 50+rng.Intn(50), 2+rng.Intn(5), 1+rng.Intn(4)
		d := &datasets.Dataset{
			NumClasses: classes,
			Labels:     make([]int, n),
			ValMask:    make([]bool, n),
			TestMask:   make([]bool, n),
		}
		owner := make([]int, n)
		for v := 0; v < n; v++ {
			d.Labels[v] = rng.Intn(classes)
			d.ValMask[v] = rng.Intn(3) == 0
			d.TestMask[v] = rng.Intn(3) == 0
			owner[v] = rng.Intn(workers)
		}
		global := tensor.New(n, classes)
		for i := range global.Data {
			global.Data[i] = float32(rng.Intn(4))
			if rng.Intn(40) == 0 {
				global.Data[i] = float32(math.NaN())
			}
		}
		checkAgainstGather(t, d, split(global, owner, workers, rng.Perm(n)))
	}
}
