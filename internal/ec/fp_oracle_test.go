package ec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ecgraph/internal/compress"
	"ecgraph/internal/tensor"
	"ecgraph/internal/transport"
)

// The multi-pass vertex-wise codec, kept verbatim as the oracle of the
// one-pass one (beside parentResponder, the oracle of the derived trend):
// multiPassRespond quantises the whole matrix, decodes it into cps, scores
// the rows against it and quantises the kept rows a second time;
// multiPassParse decodes the filtered rows, M_cr·k, the prediction and the
// output as four matrices. Both read the pair's trend state and leave the
// pair as they found it, except that multiPassParse moves the requester at
// a boundary exactly as Parse does. Do not edit: the one-pass codec is held
// to these bytes and bits. The delta boundary's multi-pass form
// (multiPassDelta, and multiPassParse's schemeDelta case) came with that
// scheme: subtract, CompressZeroCentered, decompress, add.

// multiPassScratch is the responder's hot-path scratch of the multi-pass
// codec: the decode of the quantised rows and the selector ids.
type multiPassScratch struct {
	cps *tensor.Matrix
	sel []byte
}

func multiPassRespond(r *ForwardResponder, s *multiPassScratch, h *tensor.Matrix, t, bits int) ([]byte, RespondStats) {
	if r.Granularity != GranularityVertex {
		panic("multi-pass oracle: vertex-wise selector only")
	}
	q := compress.Compress(h, bits)
	defer q.Release()

	stats := RespondStats{Rows: h.Rows}
	w := transport.NewWriter(2 + h.Rows*h.Cols)
	w.Byte(schemeSelected)

	if r.hLast == nil {
		// No trend baseline yet (first group of the run): only the
		// compressed approximation exists. An all-compressed selector is
		// encoded compactly as "no selector" (flag 0).
		w.Byte(0)
		w.Quantized(q)
		return w.Bytes(), stats
	}

	if s.cps == nil || !s.cps.SameShape(h) {
		s.cps = tensor.New(h.Rows, h.Cols)
		s.sel = make([]byte, h.Rows)
	}
	cps := q.DecompressInto(s.cps)
	k := float32(t%r.Ttr + 1)

	// One pass per vertex over the three candidates and their L1 distances
	// to h (Eq. 10), element by element in the order the whole-matrix form
	// used — Ĥ_pdt = H_base + M_cr·k (Eq. 7), Ĥ_avg = (Ĥ_pdt + Ĥ_cps)/2
	// (Eq. 9), each intermediate rounded to float32 — then the arg-min.
	// Rows that need data on the wire (§IV-B: predicted rows "do not need
	// to send the compressed values") are compacted to the front of cps.
	cols, kept := h.Cols, 0
	for v := 0; v < h.Rows; v++ {
		hr, cr := h.Row(v), cps.Row(v)
		br, mr := r.hLast.Row(v), r.mcr.Row(v)
		var dc, dp, da float64
		for j, x := range hr {
			c := cr[j]
			p := br[j] + float32(k*mr[j])
			a := float32(p+c) * 0.5
			dc += math.Abs(float64(x - c))
			dp += math.Abs(float64(x - p))
			da += math.Abs(float64(x - a))
		}
		best := SelCompressed
		bd := dc
		if dp < bd {
			best, bd = SelPredicted, dp
		}
		if da < bd {
			best = SelAverage
		}
		s.sel[v] = byte(best)
		switch best {
		case SelPredicted:
			stats.Predicted++
			continue
		case SelAverage:
			stats.Average++
		}
		copy(cps.Data[kept*cols:(kept+1)*cols], cr)
		kept++
	}
	filtered := compress.CompressWithRange(tensor.FromSlice(kept, cols, cps.Data[:kept*cols]), bits, q.Lo, q.Hi)

	w.Byte(1)
	w.Uint8s(multiPassPackSelector(s.sel))
	w.Uint32(uint32(len(s.sel)))
	w.Quantized(filtered)
	filtered.Release()
	return w.Bytes(), stats
}

// multiPassDelta is a delta boundary over base for rows h in four passes:
// d = h − base, CompressZeroCentered(d) at boundaryBits, its decode d̂, and
// base + d̂. It returns the payload numbered seq, the new base and the M_cr
// derived from it.
func multiPassDelta(base, h *tensor.Matrix, ttr int, seq uint32) (payload []byte, next, mcr *tensor.Matrix) {
	q := compress.CompressZeroCentered(h.Sub(base), boundaryBits)
	defer q.Release()
	w := transport.NewWriter(1 + transport.QuantizedSize(q) + 4)
	w.Byte(schemeDelta)
	w.Quantized(q)
	w.Uint32(seq)
	next = base.Add(q.Decompress())
	mcr = next.Sub(base).ScaleInPlace(1 / float32(ttr))
	return w.Bytes(), next, mcr
}

func multiPassDecompressReleasing(r *transport.Reader) *tensor.Matrix {
	q := r.Quantized()
	m := q.Decompress()
	q.Release()
	return m
}

func multiPassPackSelector(sel []byte) []byte {
	out := make([]byte, (len(sel)+3)/4)
	for i, s := range sel {
		out[i/4] |= (s & 3) << (uint(i%4) * 2)
	}
	return out
}

func multiPassUnpackSelector(packed []byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = (packed[i/4] >> (uint(i%4) * 2)) & 3
	}
	return out
}

func multiPassParse(q *ForwardRequester, payload []byte, t int) *tensor.Matrix {
	r := transport.NewReader(payload)
	switch scheme := r.Byte(); scheme {
	case schemeExact:
		h := r.Matrix()
		derived, seq := r.Byte(), r.Uint32()
		if t < q.round || (t == q.round && seq == q.seq) {
			return h
		}
		switch {
		case derived == 0:
			q.hBase = h.Clone() // h goes to the caller; the base is advanced in place
			q.mcr = tensor.New(h.Rows, h.Cols)
		case q.hBase == nil || seq != q.seq+1:
			panic(fmt.Sprintf("ec: boundary %d derives M_cr from boundary %d, requester holds %d", seq, seq-1, q.seq))
		default:
			advanceTrend(q.mcr, q.hBase, h, q.Ttr)
		}
		q.seq, q.round = seq, t
		return h
	case schemeDelta:
		d := r.Quantized()
		seq := r.Uint32()
		switch {
		case t == q.round && seq == q.seq:
			return q.hBase.Clone()
		case q.hBase == nil || seq != q.seq+1 || t <= q.round:
			panic(fmt.Sprintf("ec: delta boundary %d at round %d, requester holds boundary %d of round %d", seq, t, q.seq, q.round))
		case !d.ZeroCentered || d.Rows != q.hBase.Rows || d.Cols != q.hBase.Cols:
			panic(fmt.Sprintf("ec: delta of %dx%d rows over a %dx%d base", d.Rows, d.Cols, q.hBase.Rows, q.hBase.Cols))
		}
		base := q.hBase.Add(d.Decompress())
		q.mcr = base.Sub(q.hBase).ScaleInPlace(1 / float32(q.Ttr))
		q.hBase = base
		q.seq, q.round = seq, t
		return base.Clone()
	case schemeSelected:
		switch flag := r.Byte(); flag {
		case 0:
			// No selector: everything compressed.
			return multiPassDecompressReleasing(r)
		case 2:
			// Matrix-wise selector: one id for the whole message.
			id := int(r.Byte())
			n := int(r.Uint32())
			var pdt *tensor.Matrix
			if id != SelCompressed {
				if q.hBase == nil {
					panic("ec: matrix-wise prediction before any trend baseline")
				}
				k := float32(t%q.Ttr + 1)
				pdt = q.hBase.Add(q.mcr.Scale(k))
				if pdt.Rows != n {
					panic(fmt.Sprintf("ec: matrix-wise row mismatch %d vs %d", pdt.Rows, n))
				}
			}
			switch id {
			case SelPredicted:
				return pdt
			case SelCompressed:
				return multiPassDecompressReleasing(r)
			case SelAverage:
				return pdt.Add(multiPassDecompressReleasing(r)).ScaleInPlace(0.5)
			default:
				panic(fmt.Sprintf("ec: invalid matrix-wise selector id %d", id))
			}
		case 1:
			// Vertex-wise selector: fall through below.
		default:
			panic(fmt.Sprintf("ec: invalid selector flag %d", flag))
		}
		packed := r.Uint8s()
		n := int(r.Uint32())
		if q.hBase == nil {
			panic("ec: selected payload with selector before any trend baseline")
		}
		if n != q.hBase.Rows || len(packed) != (n+3)/4 {
			panic(fmt.Sprintf("ec: selector for %d rows in %d bytes over a %d-row base", n, len(packed), q.hBase.Rows))
		}
		sel := multiPassUnpackSelector(packed, n)
		filtered := multiPassDecompressReleasing(r)
		k := float32(t%q.Ttr + 1)
		pdt := q.hBase.Add(q.mcr.Scale(k))
		out := tensor.New(n, pdt.Cols)
		fi := 0
		for v := 0; v < n; v++ {
			switch sel[v] {
			case SelPredicted:
				copy(out.Row(v), pdt.Row(v))
			case SelCompressed:
				copy(out.Row(v), filtered.Row(fi))
				fi++
			case SelAverage:
				prow, crow, orow := pdt.Row(v), filtered.Row(fi), out.Row(v)
				for j := range orow {
					orow[j] = (prow[j] + crow[j]) / 2
				}
				fi++
			default:
				panic(fmt.Sprintf("ec: invalid selector id %d", sel[v]))
			}
		}
		return out
	default:
		panic(fmt.Sprintf("ec: unexpected forward scheme %d", scheme))
	}
}

// misshapenFiltered reports whether payload is a vertex-wise selected
// payload over q's base whose selector is well formed but whose filtered
// matrix is not (non-predicted rows) × base width — the one kind of payload
// the multi-pass decoder accepts (with zero-filled or truncated rows) and
// Parse rejects.
func misshapenFiltered(q *ForwardRequester, payload []byte) (bad bool) {
	defer func() {
		if recover() != nil {
			bad = false
		}
	}()
	r := transport.NewReader(payload)
	if r.Byte() != schemeSelected || r.Byte() != 1 || q.hBase == nil {
		return false
	}
	packed := r.Uint8s()
	n := int(r.Uint32())
	if n != q.hBase.Rows || len(packed) != (n+3)/4 {
		return false
	}
	kept := 0
	for _, s := range multiPassUnpackSelector(packed, n) {
		if s != SelPredicted {
			kept++
		}
	}
	rows, cols := int(r.Uint32()), int(r.Uint32())
	return rows != kept || cols != q.hBase.Cols
}

// oracleRows returns the rows of round it for one kind of input: random
// rows drifting from the previous round's, one constant value (a degenerate
// quantisation domain), or drifting rows whose last row holds NaN and ±Inf.
func oracleRows(rng *rand.Rand, kind string, prev *tensor.Matrix, rows, cols, it int) *tensor.Matrix {
	switch kind {
	case "constant":
		h := tensor.New(rows, cols)
		h.Fill(0.25 + 0.125*float32(it))
		return h
	case "nonfinite":
		h := drift(rng, prev)
		last := h.Row(rows - 1)
		last[0] = float32(math.NaN())
		last[len(last)/2] = float32(math.Inf(1))
		last[len(last)-1] = float32(math.Inf(-1))
		return h
	default:
		return drift(rng, prev)
	}
}

// TestOnePassCodecMatchesOracle drives a pair over two and a half trend
// groups — the baseline-free first group, the first boundary (M_cr = 0),
// a whole in-group run, the derived boundary and the group after it — and
// holds every in-group reply to the multi-pass oracle's bytes and stats and
// every decode to its bits, at every bit width, at widths whose rows
// straddle packed words, for one row and many, over a constant matrix and
// over rows holding NaN and ±Inf.
func TestOnePassCodecMatchesOracle(t *testing.T) {
	const ttr = 4
	var seen [3]int // rows the oracle sent compressed, predicted, averaged
	for _, bits := range compress.ValidBits {
		for _, cols := range []int{7, 16, 64} {
			for _, rows := range []int{1, 37} {
				for _, kind := range []string{"drift", "constant", "nonfinite"} {
					t.Run(fmt.Sprintf("b%d/%dx%d/%s", bits, rows, cols, kind), func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(bits*10000 + cols*100 + rows)))
						resp, req := NewForwardResponder(ttr), NewForwardRequester(ttr)
						var scratch multiPassScratch
						h := randomMatrix(rng, rows, cols)
						selected := 0
						for it := 0; it < 3*ttr-1; it++ {
							h = oracleRows(rng, kind, h, rows, cols, it)
							var want []byte
							var wantStats RespondStats
							exact := (it+1)%ttr == 0
							if !exact {
								want, wantStats = multiPassRespond(resp, &scratch, h, it, bits)
							}
							payload, stats := resp.Respond(h, it, bits)
							if stats.Boundary != exact {
								t.Fatalf("round %d: exact=%v", it, stats.Boundary)
							}
							if exact {
								req.Parse(payload, it)
								continue
							}
							if stats != wantStats {
								t.Fatalf("round %d: stats %+v, oracle %+v", it, stats, wantStats)
							}
							if string(payload) != string(want) {
								t.Fatalf("round %d: payload differs from the oracle's (%d vs %d bytes)", it, len(payload), len(want))
							}
							got, wantRows := req.Parse(payload, it), multiPassParse(req, payload, it)
							if !sameBits(got, wantRows) {
								t.Fatalf("round %d: decoded rows differ from the oracle's", it)
							}
							if payload[1] == 1 {
								selected++
								seen[SelCompressed] += stats.Rows - stats.Predicted - stats.Average
								seen[SelPredicted] += stats.Predicted
								seen[SelAverage] += stats.Average
							}
						}
						if selected != 2*(ttr-1) {
							t.Fatalf("%d rounds carried a selector, want %d", selected, 2*(ttr-1))
						}
					})
				}
			}
		}
	}
	for id, n := range seen {
		if n == 0 {
			t.Fatalf("no row selected approximation %d: the grid misses a branch", id)
		}
	}
}
