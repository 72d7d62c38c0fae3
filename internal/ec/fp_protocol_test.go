package ec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ecgraph/internal/compress"
	"ecgraph/internal/tensor"
	"ecgraph/internal/transport"
)

// parentResponder is the responder of the commit before the boundary stopped
// shipping M_cr, kept verbatim as the oracle: respondExact writes H and
// M_cr = (H − H_last)/T_tr as two matrices, respondSelected builds cps,
// M_cr·k, pdt and avg as whole matrices and takes the three L1 distances in
// three walks per row.
type parentResponder struct {
	Ttr      int
	hLast    *tensor.Matrix
	mcr      *tensor.Matrix
	haveBase bool
}

func (r *parentResponder) respondExact(h *tensor.Matrix) []byte {
	w := transport.NewWriter(2 + h.Rows*h.Cols*8)
	w.Byte(schemeExact)
	w.Matrix(h)
	if r.haveBase {
		mcr := h.Sub(r.hLast).ScaleInPlace(1 / float32(r.Ttr))
		w.Byte(1)
		w.Matrix(mcr)
		r.mcr = mcr
	} else {
		w.Byte(0)
		r.mcr = tensor.New(h.Rows, h.Cols)
	}
	r.hLast = h.Clone()
	r.haveBase = true
	return w.Bytes()
}

func (r *parentResponder) respondSelected(h *tensor.Matrix, t, bits int) []byte {
	q := compress.Compress(h, bits)
	cps := q.Decompress()
	w := transport.NewWriter(2 + h.Rows*h.Cols)
	w.Byte(schemeSelected)
	if !r.haveBase {
		w.Byte(0)
		w.Quantized(q)
		return w.Bytes()
	}
	k := float32(t%r.Ttr + 1)
	pdt := r.hLast.Add(r.mcr.Scale(k))
	avg := pdt.Add(cps).ScaleInPlace(0.5)
	sel := make([]byte, h.Rows)
	for v := 0; v < h.Rows; v++ {
		dc := parentRowL1(h, cps, v)
		dp := parentRowL1(h, pdt, v)
		da := parentRowL1(h, avg, v)
		best := SelCompressed
		bd := dc
		if dp < bd {
			best, bd = SelPredicted, dp
		}
		if da < bd {
			best = SelAverage
		}
		sel[v] = byte(best)
	}
	keep := make([]int, 0, h.Rows)
	for v, s := range sel {
		if s != SelPredicted {
			keep = append(keep, v)
		}
	}
	filtered := compress.CompressWithRange(cps.GatherRows(keep), bits, q.Lo, q.Hi)
	w.Byte(1)
	w.Uint8s(packSelector(sel))
	w.Uint32(uint32(len(sel)))
	w.Quantized(filtered)
	return w.Bytes()
}

func parentRowL1(a, b *tensor.Matrix, row int) float64 {
	ra, rb := a.Row(row), b.Row(row)
	var sum float64
	for i, v := range ra {
		d := float64(v - rb[i])
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum
}

// drift moves every element by a small random step, the way embeddings move
// between epochs.
func drift(rng *rand.Rand, h *tensor.Matrix) *tensor.Matrix {
	out := h.Clone()
	for i := range out.Data {
		out.Data[i] += 0.03 * float32(rng.NormFloat64())
	}
	return out
}

// TestDerivedTrendMatchesShippedOracle drives a pair and the parent's
// responder over the same drifting rows. At every exact boundary — the
// first, the first after a Reset, one forced off schedule, every one of a
// 0-row pair — the M_cr both ends derive is bit for bit the matrix the
// parent shipped, and a derived one costs half the parent's bytes. Every
// other scheduled boundary is a delta, byte for byte the multi-pass delta
// encoder's payload, and leaves both ends on its base and M_cr; the
// parent's responder then carries on from that base, so every in-group
// payload is byte-identical to the parent's (the scratch-buffer selector
// against its allocating oracle).
func TestDerivedTrendMatchesShippedOracle(t *testing.T) {
	for _, ttr := range []int{2, 10} {
		for _, shape := range [][2]int{{0, 6}, {1, 6}, {37, 16}} {
			for _, bits := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("ttr%d/%dx%d/b%d", ttr, shape[0], shape[1], bits), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(ttr*1000 + shape[0]*10 + bits)))
					resp, req := NewForwardResponder(ttr), NewForwardRequester(ttr)
					oracle := &parentResponder{Ttr: ttr}
					h := randomMatrix(rng, shape[0], shape[1])
					reset, force := 2*ttr+1, 3*ttr+1
					if ttr == 2 {
						force = 3 * ttr // an even round: off schedule when T_tr = 2
					}
					boundaries, deltas := 0, 0
					for it := 0; it < 5*ttr; it++ {
						if it == reset {
							resp.Reset()
							req.Reset()
							*oracle = parentResponder{Ttr: ttr}
						}
						if it == force {
							resp.ForceExact()
						}
						// A scheduled boundary over a base is a delta unless
						// the exact payload is smaller (the 0-row pair).
						var want []byte
						var wantBase, wantMcr *tensor.Matrix
						if (it+1)%ttr == 0 && it != force && oracle.haveBase {
							want, wantBase, wantMcr = multiPassDelta(oracle.hLast, h, ttr, resp.seq+1)
						}
						delta := want != nil && len(want) < exactSize(h)
						payload, stats := resp.Respond(h, it, bits)
						got := req.Parse(payload, it)
						if stats.Boundary != (it == force || (it+1)%ttr == 0) {
							t.Fatalf("round %d: boundary=%v", it, stats.Boundary)
						}
						switch {
						case !stats.Boundary:
							if want := oracle.respondSelected(h, it, bits); !bytes.Equal(payload, want) {
								t.Fatalf("round %d: selected payload differs from the parent's (%d vs %d bytes)", it, len(payload), len(want))
							}
						case delta:
							boundaries++
							deltas++
							if !bytes.Equal(payload, want) {
								t.Fatalf("round %d: delta boundary differs from the multi-pass encoder's (%d vs %d bytes)", it, len(payload), len(want))
							}
							if !sameBits(got, wantBase) || !sameBits(resp.hLast, wantBase) || !sameBits(resp.mcr, wantMcr) || !req.InSyncWith(resp) {
								t.Fatalf("round %d: delta boundary left another base or M_cr than the multi-pass encoder's", it)
							}
							oracle.hLast, oracle.mcr = wantBase, wantMcr
						default:
							boundaries++
							derives := oracle.haveBase
							shipped := oracle.respondExact(h)
							if payload[0] != schemeExact || !sameBits(got, h) {
								t.Fatalf("round %d: boundary rows not exact", it)
							}
							if !sameBits(resp.mcr, oracle.mcr) || !sameBits(req.mcr, oracle.mcr) {
								t.Fatalf("round %d: derived M_cr differs from the parent's shipped one", it)
							}
							if !sameBits(resp.hLast, oracle.hLast) || !req.InSyncWith(resp) {
								t.Fatalf("round %d: bases differ", it)
							}
							if derives && len(payload)-14 != (len(shipped)-18)/2 {
								t.Fatalf("round %d: boundary is %d bytes against the parent's %d", it, len(payload), len(shipped))
							}
						}
						h = drift(rng, h)
					}
					if (deltas == 0) != (shape[0] == 0) {
						t.Fatalf("%d delta boundaries on %d rows", deltas, shape[0])
					}
					if boundaries < 5 {
						t.Fatalf("only %d boundaries exercised", boundaries)
					}
				})
			}
		}
	}
}

// pairAt returns a pair that has exchanged rounds 0..last over drifting
// rows, and the rows of round last+1.
func pairAt(rng *rand.Rand, ttr, last int) (*ForwardResponder, *ForwardRequester, *tensor.Matrix) {
	resp, req := NewForwardResponder(ttr), NewForwardRequester(ttr)
	h := randomMatrix(rng, 12, 5)
	for it := 0; it <= last; it++ {
		payload, _ := resp.Respond(h, it, 2)
		req.Parse(payload, it)
		h = drift(rng, h)
	}
	return resp, req, h
}

// TestBoundaryRetrySameBytes: a retry of the boundary round must get the
// same bytes and leave M_cr alone. The parent recomputed the boundary
// against the base it had just moved, shipping (H − H)/T_tr = 0 and killing
// the predictor for the next trend group.
func TestBoundaryRetrySameBytes(t *testing.T) {
	resp, _, h := pairAt(rand.New(rand.NewSource(5)), 10, 18)
	first, _ := resp.Respond(h, 19, 2)
	mcr := resp.mcr.Clone()
	if mcr.MaxAbs() == 0 {
		t.Fatal("second boundary left M_cr zero")
	}
	again, stats := resp.Respond(h, 19, 2)
	if !stats.Boundary || !bytes.Equal(first, again) {
		t.Fatal("retry of the boundary round returned different bytes")
	}
	if !sameBits(resp.mcr, mcr) {
		t.Fatal("retry of the boundary round changed M_cr")
	}

	// The sticky forced round is the same rule: duplicates of the round
	// that served the forced boundary repeat it, the next round resumes the
	// schedule.
	resp.Reset()
	resp.ForceExact()
	forced, _ := resp.Respond(h, 23, 2)
	dup, stats := resp.Respond(h, 23, 2)
	if !stats.Boundary || !bytes.Equal(forced, dup) {
		t.Fatal("duplicate of the forced round is not a repeat of it")
	}
	if _, stats := resp.Respond(h, 24, 2); stats.Boundary {
		t.Fatal("force outlived its round")
	}
}

// TestLostBoundaryRebaselines plays the worker handler's rule: a requester
// that lost a boundary announces the previous count on its next request;
// the responder restarts the pair with a flag-0 exact round and both ends
// agree from then on.
func TestLostBoundaryRebaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	resp, req, h := pairAt(rng, 10, 18)
	resp.Respond(h, 19, 2) // the reply never arrives
	if req.InSyncWith(resp) {
		t.Fatal("pair in sync across a lost boundary")
	}
	if resp.OutOfSync(19, req.Seq()) {
		t.Fatal("a retry of the boundary round is not out of sync")
	}
	h = drift(rng, h)
	if !resp.OutOfSync(20, req.Seq()) {
		t.Fatal("lost boundary not detected on the next round")
	}
	resp.Reset()
	resp.ForceExact()
	payload, stats := resp.Respond(h, 20, 2)
	if r := transport.NewReader(payload[len(payload)-5:]); !stats.Boundary || r.Byte() != 0 {
		t.Fatal("re-baseline is not a flag-0 exact round")
	}
	req.Parse(payload, 20)
	for it := 21; it < 45; it++ {
		if resp.OutOfSync(it, req.Seq()) || !req.InSyncWith(resp) {
			t.Fatalf("round %d: pair out of sync after the re-baseline", it)
		}
		h = drift(rng, h)
		payload, _ := resp.Respond(h, it, 2)
		req.Parse(payload, it)
	}
	if resp.mcr.MaxAbs() == 0 {
		t.Fatal("trend never re-established")
	}

	// Without the request-side check, the next boundary that asks the
	// requester to derive from a base it does not hold is a decode error,
	// not a silently wrong M_cr.
	resp, req, h = pairAt(rng, 10, 18)
	resp.Respond(h, 19, 2)
	for it := 20; it < 29; it++ {
		resp.Respond(h, it, 2)
	}
	payload, _ = resp.Respond(h, 29, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("derived a trend across a lost boundary")
		}
	}()
	req.Parse(payload, 29)
}

// TestLateDuplicateLeavesPairAlone: an older round arriving after a newer
// boundary changes nothing on either end.
func TestLateDuplicateLeavesPairAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	resp, req, h := pairAt(rng, 10, 19)
	old := drift(rng, h)
	base, mcr, seq := resp.hLast.Clone(), resp.mcr.Clone(), resp.seq
	for _, round := range []int{9, 14} { // an older boundary, an older in-group round
		payload, stats := resp.Respond(old, round, 2)
		if !stats.Boundary {
			t.Fatalf("late round %d answered against the newer base", round)
		}
		if got := req.Parse(payload, round); !sameBits(got, old) {
			t.Fatalf("late round %d: rows not exact", round)
		}
		if resp.seq != seq || resp.round != 19 || !sameBits(resp.hLast, base) || !sameBits(resp.mcr, mcr) {
			t.Fatalf("late round %d moved the responder", round)
		}
		if !req.InSyncWith(resp) {
			t.Fatalf("late round %d moved the requester", round)
		}
	}
	// The live exchange carries on from the untouched pair.
	payload, stats := resp.Respond(h, 20, 2)
	if stats.Boundary {
		t.Fatal("round 20 is in-group")
	}
	req.Parse(payload, 20)
}

// TestDeltaBoundaryProtocol walks pairs over random walks and linear trends
// through what the exchange does to boundaries: a boundary round retried
// (the same bytes, parsed again or not), a boundary reply lost for good
// (the worker's OutOfSync rule re-baselines on the next round), a reset of
// both ends with ForceExact (recovery, resume, a view change), ForceExact
// alone, late duplicates of older rounds, and pairs of 0 rows. After every
// round whose reply arrived, both ends hold the same boundary, and the
// requester's base is within max|d|/(2^B − 2) (deltaBound) of the rows of
// the boundary it came from — exactly those rows when it was exact.
func TestDeltaBoundaryProtocol(t *testing.T) {
	var seen struct{ delta, exact, retried, lost, reset, forced, late, empty int }
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ttr := 2 + rng.Intn(5)
		rows, cols := rng.Intn(9), 1+rng.Intn(9)
		if seed%6 == 0 {
			rows = 0
		}
		linear := seed%2 == 0
		resp, req := NewForwardResponder(ttr), NewForwardRequester(ttr)
		h := randomMatrix(rng, rows, cols)
		rate := randomMatrix(rng, rows, cols).ScaleInPlace(0.02)
		var from *tensor.Matrix // rows of the requester's boundary
		bound := 0.0
		for it := 0; it < 10*ttr; it++ {
			if linear {
				h = h.Add(rate)
			} else {
				h = drift(rng, h)
			}
			switch rng.Intn(16) {
			case 0:
				resp.Reset()
				req.Reset()
				resp.ForceExact()
				from = nil
				seen.reset++
			case 1:
				resp.ForceExact()
				seen.forced++
			}
			if resp.OutOfSync(it, req.Seq()) {
				resp.Reset()
				resp.ForceExact()
			}
			var prev *tensor.Matrix
			if resp.hLast != nil {
				prev = resp.hLast.Clone()
			}
			payload, stats := resp.Respond(h, it, 1<<rng.Intn(3))
			if stats.Boundary {
				lost := rng.Intn(8) == 0
				base, mcr := resp.hLast.Clone(), resp.mcr.Clone()
				for retry := rng.Intn(3); retry > 0; retry-- {
					again, _ := resp.Respond(h, it, 2)
					if !bytes.Equal(again, payload) || !sameBits(resp.hLast, base) || !sameBits(resp.mcr, mcr) {
						t.Fatalf("seed %d round %d: retry of the boundary round is not a repeat of it", seed, it)
					}
					if !lost && rng.Intn(2) == 0 {
						req.Parse(again, it)
					}
					seen.retried++
				}
				if lost {
					seen.lost++
					continue // no reply ever arrives: the next round re-baselines
				}
			}
			got := req.Parse(payload, it)
			if stats.Boundary {
				if !sameBits(got, req.hBase) {
					t.Fatalf("seed %d round %d: boundary rows are not the base they leave", seed, it)
				}
				from, bound = h.Clone(), 0
				switch payload[0] {
				case schemeDelta:
					bound = deltaBound(h, prev)
					seen.delta++
				case schemeExact:
					seen.exact++
				}
				if rows == 0 {
					seen.empty++
				}
			}
			if it > ttr && rng.Intn(4) == 0 {
				// A late duplicate of an older round answers exact rows and
				// moves nothing.
				old := it - 1 - rng.Intn(ttr)
				if old < resp.round {
					late, _ := resp.Respond(h, old, 2)
					if !sameBits(req.Parse(late, old), h) {
						t.Fatalf("seed %d round %d: late duplicate of round %d is not exact", seed, it, old)
					}
					seen.late++
				}
			}
			if !req.InSyncWith(resp) {
				t.Fatalf("seed %d round %d: pair out of sync", seed, it)
			}
			if from != nil && !req.hBase.Equal(from, bound) {
				t.Fatalf("seed %d round %d: base strays more than %g from its boundary's rows", seed, it, bound)
			}
		}
	}
	t.Logf("%+v", seen)
	if seen.delta == 0 || seen.exact == 0 || seen.retried == 0 || seen.lost == 0 || seen.reset == 0 ||
		seen.forced == 0 || seen.late == 0 || seen.empty == 0 {
		t.Fatalf("a case was never exercised: %+v", seen)
	}
}

// TestRespondKeepsNoReferenceToRows: the worker gathers every reply's rows
// into one scratch buffer that the next reply overwrites, so Respond must
// copy whatever it keeps. A pair fed through a buffer scribbled over after
// each reply answers byte for byte like a pair fed fresh copies, boundaries
// included.
func TestRespondKeepsNoReferenceToRows(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	fresh, reused := NewForwardResponder(4), NewForwardResponder(4)
	h := randomMatrix(rng, 9, 7)
	scratch := tensor.New(9, 7)
	for it := 0; it < 14; it++ {
		want, _ := fresh.Respond(h.Clone(), it, 2)
		copy(scratch.Data, h.Data)
		got, _ := reused.Respond(scratch, it, 2)
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: reply depends on rows a previous reply was given", it)
		}
		scratch.Fill(float32(it) - 1e6)
		h = drift(rng, h)
	}
}

// realPayloads returns one payload of every scheme and flag the decoders
// accept, produced by the real encoders, together with a requester able to
// decode the forward ones (its base is the 6x4 pair the payloads cover).
func realPayloads() (forward, matrix [][]byte, newReq func() *ForwardRequester) {
	const ttr = 4
	rng := rand.New(rand.NewSource(8))
	resp := NewForwardResponder(ttr)
	mat := NewForwardResponder(ttr)
	mat.Granularity = GranularityMatrix
	var boundaries [][]byte
	h := randomMatrix(rng, 6, 4)
	for it := 0; it < 3*ttr; it++ {
		for _, bits := range []int{1, 4, 16} {
			if (it+1)%ttr == 0 && bits != 1 {
				continue
			}
			p, stats := resp.Respond(h, it, bits)
			pm, _ := mat.Respond(h, it, bits)
			forward = append(forward, p, pm)
			if stats.Boundary && len(boundaries) < 2 {
				boundaries = append(boundaries, p)
			}
		}
		h = drift(rng, h)
	}
	newReq = func() *ForwardRequester {
		q := NewForwardRequester(ttr)
		q.Parse(boundaries[0], ttr-1)
		q.Parse(boundaries[1], 2*ttr-1)
		return q
	}
	g := randomMatrix(rng, 6, 4)
	matrix = [][]byte{
		RespondRaw(g),
		RespondCompressOnly(g, 2),
		RespondCompressOnlyGrad(g, 16),
		NewBackwardResponder().Respond(g, 1),
		NewTopKResponder(2).Respond(g),
	}
	return forward, matrix, newReq
}

// allocated returns the bytes f allocated (and whether it panicked).
func allocated(f func()) (n uint64, panicked bool) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	func() {
		defer func() { panicked = recover() != nil }()
		f()
	}()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, panicked
}

// decodeBudget bounds what decoding a payload may allocate: 1-bit ids
// expand 32-fold into float32 rows, the requester keeps up to three copies
// of a boundary, and the 16-bit bucket table is 256 KiB whatever the length.
func decodeBudget(payload []byte) uint64 { return 128*uint64(len(payload)) + 1<<20 }

// FuzzForwardParse: a forward payload either decodes or fails through the
// panic the ghost decode path recovers into an error, and a corrupted count
// never makes it allocate beyond a small multiple of the bytes that arrived.
// It is also differential against the multi-pass decoder: Parse accepts
// exactly the payloads multiPassParse accepts — except a filtered matrix
// that is not (non-predicted rows) × base width, which only Parse rejects —
// and returns the same bits and leaves the requester in the same state.
func FuzzForwardParse(f *testing.F) {
	forward, _, newReq := realPayloads()
	for i, p := range forward {
		f.Add(p, uint8(i))
	}
	f.Fuzz(func(t *testing.T, payload []byte, round uint8) {
		q, oracle := newReq(), newReq()
		var got, want *tensor.Matrix
		n, rejected := allocated(func() { got = q.Parse(payload, int(round)) })
		if n > decodeBudget(payload) {
			t.Fatalf("decoding %d bytes allocated %d", len(payload), n)
		}
		_, oracleRejected := allocated(func() { want = multiPassParse(oracle, payload, int(round)) })
		switch {
		case rejected && !oracleRejected:
			if !misshapenFiltered(oracle, payload) {
				t.Fatal("Parse rejects a payload the multi-pass decoder accepts")
			}
		case oracleRejected && !rejected:
			t.Fatal("Parse accepts a payload the multi-pass decoder rejects")
		case !rejected:
			if !sameBits(got, want) {
				t.Fatal("Parse decodes other bits than the multi-pass decoder")
			}
			if q.seq != oracle.seq || q.round != oracle.round || (q.hBase == nil) != (oracle.hBase == nil) ||
				q.hBase != nil && (!sameBits(q.hBase, oracle.hBase) || !sameBits(q.mcr, oracle.mcr)) {
				t.Fatal("Parse leaves the requester in another state than the multi-pass decoder")
			}
		}
	})
}

// FuzzParsePacked is the same contract for the matrix payloads (raw,
// quantised, sparse) on both decoders.
func FuzzParsePacked(f *testing.F) {
	_, matrix, _ := realPayloads()
	for _, p := range matrix {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		n, _ := allocated(func() {
			if _, blk := ParsePacked(payload); blk != nil {
				blk.Dense()
			}
		})
		m, _ := allocated(func() { ParseMatrix(payload) })
		if max(n, m) > decodeBudget(payload) {
			t.Fatalf("decoding %d bytes allocated %d / %d", len(payload), n, m)
		}
	})
}

// TestRealPayloadsDecode keeps the fuzz seeds honest: every seed decodes,
// and there is one of every scheme that does.
func TestRealPayloadsDecode(t *testing.T) {
	forward, matrix, newReq := realPayloads()
	schemes := map[byte]bool{}
	for i, p := range forward {
		// Rounds past the held boundary so that boundaries are new ones;
		// those that ask for a derivation this requester cannot do are
		// allowed to fail, the rest must decode.
		_, panicked := allocated(func() { newReq().Parse(p, 100+i) })
		if panicked && p[0] != schemeExact && p[0] != schemeDelta {
			t.Fatalf("forward seed %d (scheme %d) does not decode", i, p[0])
		}
		schemes[p[0]] = schemes[p[0]] || !panicked
	}
	for i, p := range matrix {
		if _, panicked := allocated(func() { ParseMatrix(p); ParsePacked(p) }); panicked {
			t.Fatalf("matrix seed %d does not decode", i)
		}
		schemes[p[0]] = true
	}
	for s := byte(schemeRaw); s <= schemeDelta; s++ {
		if !schemes[s] {
			t.Fatalf("no seed of scheme %d that decodes", s)
		}
	}
}

// deltaPair returns a 1024×64 pair past its first (exact) boundary at round
// 9 and two row sets a drift apart, so that boundaries alternating between
// them each ship a delta.
func deltaPair() (*ForwardResponder, *ForwardRequester, [2]*tensor.Matrix) {
	rng := rand.New(rand.NewSource(1))
	resp, req := NewForwardResponder(10), NewForwardRequester(10)
	h := randomMatrix(rng, 1024, 64)
	payload, _ := resp.Respond(h, 9, 2)
	req.Parse(payload, 9)
	return resp, req, [2]*tensor.Matrix{h, drift(rng, h)}
}

// BenchmarkForwardRespondDelta serves scheduled boundaries of a 1024×64 pair
// over its base: the max pass and the one walk that quantises, packs and
// moves the base and M_cr.
func BenchmarkForwardRespondDelta(b *testing.B) {
	resp, _, hs := deltaPair()
	if p, _ := resp.Respond(hs[1], 19, 2); p[0] != schemeDelta {
		b.Fatal("scheduled boundary is not a delta")
	}
	b.SetBytes(int64(len(hs[0].Data) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp.Respond(hs[i%2], 29+10*i, 2)
	}
}

// BenchmarkForwardParseDelta decodes a delta boundary of a 1024×64 pair in
// one walk over its ids. Every op decodes the same payload as the boundary
// after the one held: the requester's count is put back before each, and
// its base drifts by the decoded rows, which costs the same.
func BenchmarkForwardParseDelta(b *testing.B) {
	resp, req, hs := deltaPair()
	payload, _ := resp.Respond(hs[1], 19, 2)
	if payload[0] != schemeDelta {
		b.Fatal("scheduled boundary is not a delta")
	}
	held := req.seq
	b.SetBytes(int64(len(hs[0].Data) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.seq, req.round = held, 9
		req.Parse(payload, 19)
	}
}

func sameBits(a, b *tensor.Matrix) bool {
	return a.SameShape(b) && slices.EqualFunc(a.Data, b.Data, func(x, y float32) bool {
		return math.Float32bits(x) == math.Float32bits(y)
	})
}
