package worker

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ecgraph/internal/datasets"
	"ecgraph/internal/ec"
	"ecgraph/internal/nn"
	"ecgraph/internal/obs"
	"ecgraph/internal/tensor"
	"ecgraph/internal/transport"
)

// tapNet hands every successful remote reply to after, which may replace it.
type tapNet struct {
	transport.Network
	after func(src, dst int, method string, req, resp []byte) []byte
}

func (n *tapNet) Call(src, dst int, method string, req []byte) ([]byte, error) {
	resp, err := n.Network.Call(src, dst, method, req)
	if err != nil || src == dst {
		return resp, err
	}
	return n.after(src, dst, method, req, resp), nil
}

func (n *tapNet) CallMulti(src int, calls []transport.Call) []transport.Result {
	return transport.SequentialMulti(n, src, calls)
}

// parentG is the parent's getG responder for one (responder, requester)
// pair, kept only here: it answers with every row of Needs, the zero rows of
// non-training vertices included, through the same codecs.
type parentG struct {
	opts  Options
	resec *ec.BackwardResponder
}

func (p *parentG) respond(m *tensor.Matrix) []byte {
	switch p.opts.BPScheme {
	case SchemeCompress:
		return ec.RespondCompressOnlyGrad(m, p.opts.BPBits)
	case SchemeEC:
		if p.resec == nil {
			p.resec = ec.NewBackwardResponder()
		}
		return p.resec.Respond(m, p.opts.BPBits)
	default:
		return ec.RespondRaw(m)
	}
}

// TestTopLayerGetGMatchesFullList drives real epochs and, on every top-layer
// getG reply, checks the derived list against the parent's full one: the
// shipped rows scattered into zeros equal, bit for bit, what a full-list
// responder fed the same published G^L decodes to — over epochs of carried
// residual — and that responder's residual is zero on every row the tree no
// longer ships. Raw, Cp-bp and ResEC-BP at every width with a zero level.
func TestTopLayerGetGMatchesFullList(t *testing.T) {
	arms := []Options{{BPScheme: SchemeRaw}}
	for _, b := range []int{2, 4, 8, 16} {
		arms = append(arms, Options{BPScheme: SchemeCompress, BPBits: b}, Options{BPScheme: SchemeEC, BPBits: b})
	}
	for _, opts := range arms {
		t.Run(fmt.Sprintf("%v-B%d", opts.BPScheme, opts.BPBits), func(t *testing.T) {
			var (
				mu      sync.Mutex
				workers []*Worker
				parents = map[[2]int]*parentG{}
				checked int
			)
			check := func(src, dst int, method string, req, resp []byte) []byte {
				if method != MethodGetG {
					return resp
				}
				mu.Lock()
				defer mu.Unlock()
				l := int(req[0])
				w := workers[dst]
				g, _ := w.gStore.Peek(l)
				p := parents[[2]int{dst, src}]
				if p == nil {
					p = &parentG{opts: opts}
					parents[[2]int{dst, src}] = p
				}
				want := ec.ParseMatrix(p.respond(g.GatherRows(int32sToInts(w.serve[0][src].loc))))
				shipped := ec.ParseMatrix(resp)
				needs, top := w.topo.Needs[src][dst], w.needsAt(l, src, dst)
				if shipped.Rows != len(top) || len(top) >= len(needs) {
					t.Errorf("getG(l=%d) %d→%d ships %d rows; list %d, Needs %d", l, dst, src, shipped.Rows, len(top), len(needs))
					return resp
				}
				got := tensor.New(want.Rows, want.Cols)
				for k, v := range top {
					copy(got.Row(needsIndex(needs, v)), shipped.Row(k))
				}
				for i, x := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(x) {
						t.Errorf("getG(l=%d) %d→%d: element %d scattered %v, full list %v", l, dst, src, i, got.Data[i], x)
						return resp
					}
				}
				if p.resec != nil {
					for r, v := range needs {
						if needsIndex(top, v) >= 0 {
							continue
						}
						for _, x := range p.resec.Residual().Row(r) {
							if math.Float32bits(x) != 0 {
								t.Errorf("full-list residual of non-training vertex %d is %v", v, x)
								return resp
							}
						}
					}
				}
				checked++
				return resp
			}
			ws, _, step := clusterOver(t, opts, nil, func(base transport.Network) transport.Network {
				return &tapNet{Network: base, after: check}
			})
			workers = ws
			for e := 0; e < 5; e++ {
				for _, err := range step(e) {
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			if checked != 5*2 {
				t.Fatalf("checked %d getG replies, want %d", checked, 5*2)
			}
		})
	}
}

// TestShortGetGPayloadDegrades: a getG or getH reply whose shape disagrees
// with the pair's derived list — a row short or a row long, raw or
// quantised, on the pipelined exchange or on the delayed-aggregation
// refresh, or on a layer that transforms first a reply at H's width instead
// of the published H·W's — is a decode error: the last-good rows serve the
// epoch, or with none the epoch fails by name. Never a panic, never a
// silently zero ghost row, never rows of another width installed, and never
// a scatter that lands rows on the wrong vertices or in the next owner's
// slots.
func TestShortGetGPayloadDegrades(t *testing.T) {
	for _, arm := range []struct {
		name string
		d    direction
		opts Options
	}{
		{"getG-raw", dirG, Options{BPScheme: SchemeRaw}},
		{"getG-resec", dirG, Options{BPScheme: SchemeEC, BPBits: 4}},
		{"getH-raw", dirH, Options{FPScheme: SchemeRaw}},
		{"getH-compress", dirH, Options{FPScheme: SchemeCompress, FPBits: 4}},
		{"getH-delayed", dirH, Options{DelayRounds: 2}},
	} {
		for _, delta := range []int{-1, 1} {
			t.Run(fmt.Sprintf("%s%+d", arm.name, delta), func(t *testing.T) {
				testMisshapenPayload(t, arm.d, arm.opts, delta)
			})
		}
	}
	t.Run("getH-raw-at-H-width", func(t *testing.T) {
		testMisshapenPayload(t, dirH, Options{FPScheme: SchemeRaw}, 0)
	})
}

// testMisshapenPayload tampers with every d reply of the chosen epochs,
// re-encoding it in its own scheme with delta rows more than it carried; a
// zero delta instead answers a raw getH(l) with the responder's H^l rows of
// the pair, at H^l's width.
func testMisshapenPayload(t *testing.T, d direction, opts Options, delta int) {
	var (
		tamperAt func(epoch int) bool
		tampered atomic.Int64
		peers    []*Worker
	)
	tamper := func(src, dst int, method string, req, resp []byte) []byte {
		if method != d.method() || !tamperAt(int(transport.NewReader(req[1:]).Uint32())) {
			return resp
		}
		tampered.Add(1)
		if delta == 0 {
			// What a peer that aggregates first would send.
			p, l := peers[dst], int(req[0])
			if !p.transformFirst(l + 1) {
				t.Errorf("getH(%d) tampered at H's width, but layer %d does not transform first", l, l+1)
			}
			return ec.RespondRaw(p.ownH[l].GatherRows(int32sToInts(p.serve[l][src].loc)))
		}
		// What a peer with a different mask (or a bug) would send: one row
		// fewer, or one more, than the list both ends should have derived.
		m := ec.ParseMatrix(resp)
		rows := make([]int, m.Rows+delta)
		for i := range rows {
			rows[i] = i % m.Rows
		}
		m = m.GatherRows(rows)
		switch {
		case d == dirG && opts.BPScheme != SchemeRaw:
			return ec.RespondCompressOnlyGrad(m, opts.BPBits)
		case d == dirH && opts.FPScheme != SchemeRaw:
			return ec.RespondCompressOnly(m, opts.FPBits)
		}
		return ec.RespondRaw(m)
	}
	wrap := func(base transport.Network) transport.Network { return &tapNet{Network: base, after: tamper} }

	tamperAt = func(e int) bool { return e == 2 }
	workers, reports, step := clusterOver(t, opts, nil, wrap)
	peers = workers
	for e := 0; e < 5; e++ {
		before := tampered.Load()
		for i, err := range step(e) {
			if err != nil {
				t.Fatalf("epoch %d worker %d: %v", e, i, err)
			}
		}
		degraded := 0
		for _, r := range reports {
			degraded += r.DegradedFetches
		}
		if n := tampered.Load() - before; int64(degraded) != n || (e == 2) != (n > 0) {
			t.Fatalf("epoch %d: %d degraded fetches for %d misshapen replies", e, degraded, n)
		}
	}
	l := map[direction]int{dirH: 1, dirG: 2}[d]
	for _, w := range workers {
		for _, j := range w.ghostOwner {
			if got := w.last[d][l][j].epoch; got < 3 {
				t.Fatalf("worker %d: last good %v rows from %d are of epoch %d after recovery", w.id, d, j, got)
			}
		}
	}

	tamperAt = func(int) bool { return true }
	peers, _, step = clusterOver(t, opts, nil, wrap)
	for i, err := range step(0) {
		if err == nil || !strings.Contains(err.Error(), "pair list wants") {
			t.Fatalf("worker %d: misshapen payload with no fallback returned %v", i, err)
		}
	}
}

// TestTopLayerListsDerivedFromMask: both ends of every pair derive the same
// top-layer list from the global mask, a pair none of whose vertices train
// exchanges a zero-row payload and still trains, a mask that covers every
// vertex derives the full lists (shared, not copied), and the handler counts
// what it shipped and what it left to the mask.
func TestTopLayerListsDerivedFromMask(t *testing.T) {
	cora := datasets.MustLoad("cora")
	for _, tc := range []struct {
		name string
		mask func(v int) bool
	}{
		{"split", func(v int) bool { return cora.TrainMask[v] }},
		{"one-sided", func(v int) bool { return cora.TrainMask[v] && v%3 == 0 }}, // workers 1 and 2 serve no training row
		{"all", func(int) bool { return true }},
	} {
		d := *cora
		d.TrainMask = make([]bool, len(cora.TrainMask))
		for v := range d.TrainMask {
			d.TrainMask[v] = tc.mask(v)
		}
		for _, opts := range []Options{
			{BPScheme: SchemeEC, BPBits: 2},
			{BPScheme: SchemeTopK, BPBits: 4},
		} {
			r := clusterSpec{kind: nn.KindGCN, opts: opts, workers: 3, epochs: 3}.run(t, &d)
			const L = 2
			for _, w := range r.workers {
				shipped, derived := w.topGRows()
				for _, j := range w.ghostOwner {
					mine, theirs := w.needsAt(L, w.id, j), r.workers[j].needsAt(L, w.id, j)
					if len(mine) != len(theirs) {
						t.Fatalf("%s: pair (%d,%d) derives %d rows on the requester, %d on the responder", tc.name, w.id, j, len(mine), len(theirs))
					}
					for k, v := range mine {
						if theirs[k] != v || !d.TrainMask[v] {
							t.Fatalf("%s: pair (%d,%d) row %d is vertex %d / %d (trains: %v)", tc.name, w.id, j, k, v, theirs[k], d.TrainMask[v])
						}
						if w.ghostIDs[w.fetch[L][j].loc[k]] != v || r.workers[j].owned[r.workers[j].serve[L][w.id].loc[k]] != v {
							t.Fatalf("%s: pair (%d,%d) row %d does not locate vertex %d", tc.name, w.id, j, k, v)
						}
					}
					if tc.name == "all" && &mine[0] != &w.topo.Needs[w.id][j][0] {
						t.Fatalf("all-training pair (%d,%d) copied its list", w.id, j)
					}
					if resp := r.workers[j].bpResp[L]; resp != nil {
						if got := resp[w.id].Residual().Rows; got != len(mine) {
							t.Fatalf("%s: pair (%d,%d) residual has %d rows, list %d", tc.name, w.id, j, got, len(mine))
						}
					}
				}
				switch {
				case tc.name == "all" && derived != 0,
					tc.name == "one-sided" && w.id != 0 && shipped != 0,
					tc.name != "all" && derived == 0:
					t.Fatalf("%s: worker %d ships %d top-layer rows, derives %d", tc.name, w.id, shipped, derived)
				}
			}
		}
	}

	reg := obs.NewRegistry()
	workers, _, step := clusterOver(t, Options{BPScheme: SchemeEC, BPBits: 2}, reg, func(n transport.Network) transport.Network { return n })
	for e := 0; e < 2; e++ {
		for _, err := range step(e) {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		shipped, derived := w.topGRows()
		for kind, n := range map[string]int{"shipped": shipped, "derived": derived} {
			want := fmt.Sprintf(`ecgraph_getg_rows_total{worker="%d",kind="%s"} %d`, w.id, kind, 2*n)
			if !strings.Contains(sb.String(), want) {
				t.Fatalf("metrics lack %q in:\n%s", want, sb.String())
			}
		}
	}
}
