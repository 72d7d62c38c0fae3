// Package ec implements the paper's error-compensated compression: the
// requesting-end compensation for forward-propagation embeddings
// (ReqEC-FP, §IV-B: trend groups, the three-way approximation selector and
// the adaptive Bit-Tuner) and the responding-end compensation for
// backward-propagation embedding gradients (ResEC-BP, §IV-C, Eqs. 11-12).
//
// The state machines here are pure with respect to the transport: they
// consume and produce byte payloads via the transport codec, so the same
// logic runs over the in-process network and real TCP. One
// (ForwardResponder, ForwardRequester) pair exists per (layer, responding
// worker, requesting worker) triple, always covering the same fixed vertex
// rows; likewise for BackwardResponder.
package ec

import (
	"fmt"
	"math"
	"slices"

	"ecgraph/internal/compress"
	"ecgraph/internal/tensor"
	"ecgraph/internal/transport"
)

// Message scheme tags (first payload byte).
const (
	schemeRaw      = 0 // uncompressed matrix
	schemeCompress = 1 // compression only, no compensation
	schemeExact    = 2 // ReqEC trend boundary: exact H + derive flag + boundary seq (M_cr is derived, not shipped)
	schemeSelected = 3 // ReqEC in-group: selector array + filtered compressed rows
	schemeSparse   = 4 // Top-K sparsified matrix (with error feedback)
)

// Approximation ids in the selector array (§IV-B: "00, 01 and 10 for
// compressed, predicted, and average").
const (
	SelCompressed = 0
	SelPredicted  = 1
	SelAverage    = 2
)

// RespondStats summarises one ReqEC response for the Bit-Tuner and the
// communication accounting.
type RespondStats struct {
	Rows      int // vertices covered by this response
	Predicted int // vertices for which the predicted approximation won
	Average   int // vertices for which the running average won
	Exact     bool
}

// Granularity selects the scope at which the selector picks among the
// three approximations. §IV-B: "There are three kinds of granularity ...
// element-wise, vertex-wise and matrix-wise schemas. We use vertex-wise
// approximations, which yields the best balance" — matrix-wise is provided
// for the ablation benchmark.
type Granularity int

const (
	// GranularityVertex selects per vertex row (the paper's choice).
	GranularityVertex Granularity = iota
	// GranularityMatrix selects one approximation for the whole message.
	GranularityMatrix
)

// ForwardResponder holds the responding-end state of ReqEC-FP for one
// (layer, requester) pair: the exact embeddings sent at the last trend
// boundary and the changing-rate matrix M_cr derived from them (Alg. 4).
type ForwardResponder struct {
	Ttr         int
	Granularity Granularity

	hLast *tensor.Matrix // exact rows at the last trend boundary; nil before the first
	mcr   *tensor.Matrix // (H_now − H_last)/Ttr as of that boundary

	// Boundary bookkeeping (DESIGN.md §8). seq counts the boundaries this
	// responder has served and names the base both ends must hold; it
	// survives Reset, so one number never names two bases. round is the
	// iteration the last boundary served (−1 before the first, and after
	// Reset) and derived the flag it shipped: a repeat of that round is
	// re-emitted from them, not recomputed.
	seq        uint32
	round      int
	derived    byte
	forceExact bool // the next new round is a boundary whatever its number

	// Hot-path scratch of the in-group rounds, reallocated only when the
	// pair's shape changes: the decode of the quantised rows (compacted in
	// place into the rows that travel) and the selector ids.
	cps *tensor.Matrix
	sel []byte
}

// NewForwardResponder returns responder state with trend-group length ttr.
func NewForwardResponder(ttr int) *ForwardResponder {
	if ttr < 2 {
		panic(fmt.Sprintf("ec: Ttr must be ≥ 2, got %d", ttr))
	}
	return &ForwardResponder{Ttr: ttr, round: -1}
}

// Respond builds the reply payload for iteration t carrying the embedding
// rows h (the requester's ghost rows, fixed order) compressed with the
// given bit width. At trend boundaries (t mod Ttr == Ttr−1, or the first
// round after ForceExact) it sends the exact embeddings, from which the
// requester derives the same M_cr this end keeps; otherwise it evaluates
// the three approximations, selects per vertex, and ships only what the
// requester cannot predict.
//
// A boundary is idempotent per round: a repeat of the round that served the
// last boundary (a transport retry, a leaked duplicate of a failed attempt)
// gets the same bytes and leaves the pair alone. A round older than that
// boundary can only be a late duplicate nobody waits for; it is answered
// with exact rows that claim nothing about the pair (flag 0, seq 0) and
// mutates nothing.
func (r *ForwardResponder) Respond(h *tensor.Matrix, t, bits int) ([]byte, RespondStats) {
	exact := RespondStats{Rows: h.Rows, Exact: true}
	switch {
	case t == r.round:
		return encodeExact(r.hLast, r.derived, r.seq), exact
	case t < r.round:
		return encodeExact(h, 0, 0), exact
	case r.forceExact || (t+1)%r.Ttr == 0:
		r.boundary(h, t)
		return encodeExact(h, r.derived, r.seq), exact
	}
	return r.respondSelected(h, t, bits)
}

// ForceExact makes the next new round a trend boundary regardless of its
// iteration number — the forced exact-sync round a recovery or resume uses
// to re-baseline the pair after compensation state was reset, exactly
// mirroring the scheduled T_tr boundary on the wire. Duplicates of that
// round left in flight by a failed epoch attempt cannot consume the sync
// the retry depends on: whichever arrives first performs it and the rest
// are repeats of its round.
func (r *ForwardResponder) ForceExact() { r.forceExact = true }

// Reset discards the trend state (H_last, M_cr): the pair behaves as if
// freshly constructed, except that seq keeps counting. Used when a peer is
// respawned or a run rolls back — stale baselines must never feed the
// selector again.
func (r *ForwardResponder) Reset() {
	r.hLast = nil
	r.mcr = nil
	r.round = -1
	r.forceExact = false
}

// OutOfSync reports whether a request for iteration t from a requester that
// has parsed seq boundaries comes from a base this responder does not hold:
// a round newer than the last boundary whose count is not ours means the
// requester lost a boundary (or either end was reset alone), and every
// in-group payload would be decoded against the wrong base. The caller
// re-baselines with Reset and ForceExact. Repeats of the boundary round
// legitimately carry the previous count and are not out of sync.
func (r *ForwardResponder) OutOfSync(t int, seq uint32) bool {
	return t > r.round && seq != r.seq
}

// boundary moves the trend base to h: M_cr = (h − H_last)/Ttr when a base
// exists (Alg. 4 line 4), zero otherwise.
func (r *ForwardResponder) boundary(h *tensor.Matrix, t int) {
	if r.hLast != nil {
		advanceTrend(r.mcr, r.hLast, h, r.Ttr)
		r.derived = 1
	} else {
		r.hLast = h.Clone()
		r.mcr = tensor.New(h.Rows, h.Cols)
		r.derived = 0
	}
	r.seq++
	r.round = t
	r.forceExact = false
}

// advanceTrend sets mcr = (h − base)/ttr and then base = h, in place. Both
// ends of a pair run exactly this — a float32 subtraction rounded to
// float32, then one multiplication by 1/ttr — which is why the requester's
// derived M_cr equals the responder's bit for bit.
func advanceTrend(mcr, base, h *tensor.Matrix, ttr int) {
	if !h.SameShape(base) {
		panic(fmt.Sprintf("ec: trend boundary of %dx%d rows over a %dx%d base", h.Rows, h.Cols, base.Rows, base.Cols))
	}
	inv := 1 / float32(ttr)
	md, bd := mcr.Data, base.Data
	for i, x := range h.Data {
		md[i] = float32(x-bd[i]) * inv
		bd[i] = x
	}
}

// encodeExact writes a trend-boundary payload: the exact rows, whether the
// requester must derive M_cr from its previous base (1) or start from
// M_cr = 0 (0), and the boundary's sequence number.
func encodeExact(h *tensor.Matrix, derived byte, seq uint32) []byte {
	w := transport.NewWriter(14 + len(h.Data)*4)
	w.Byte(schemeExact)
	w.Matrix(h)
	w.Byte(derived)
	w.Uint32(seq)
	return w.Bytes()
}

func (r *ForwardResponder) respondSelected(h *tensor.Matrix, t, bits int) ([]byte, RespondStats) {
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

	if r.cps == nil || !r.cps.SameShape(h) {
		r.cps = tensor.New(h.Rows, h.Cols)
		r.sel = make([]byte, h.Rows)
	}
	cps := q.DecompressInto(r.cps)
	k := float32(t%r.Ttr + 1)

	if r.Granularity == GranularityMatrix {
		return r.respondMatrixWise(h, cps, k, q, w, stats)
	}

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
		r.sel[v] = byte(best)
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
	w.Uint8s(packSelector(r.sel))
	w.Uint32(uint32(len(r.sel)))
	w.Quantized(filtered)
	filtered.Release()
	return w.Bytes(), stats
}

// respondMatrixWise picks one approximation for the entire message: a
// single id byte plus, unless predicted wins, the compressed matrix.
func (r *ForwardResponder) respondMatrixWise(h, cps *tensor.Matrix, k float32, q *compress.Quantized, w *transport.Writer, stats RespondStats) ([]byte, RespondStats) {
	pdt := r.hLast.Add(r.mcr.Scale(k))
	avg := pdt.Add(cps).ScaleInPlace(0.5)
	dc := cps.Sub(h).AbsSum()
	dp := pdt.Sub(h).AbsSum()
	da := avg.Sub(h).AbsSum()
	best := SelCompressed
	bd := dc
	if dp < bd {
		best, bd = SelPredicted, dp
	}
	if da < bd {
		best = SelAverage
	}
	w.Byte(2) // matrix-wise selector flag
	w.Byte(byte(best))
	w.Uint32(uint32(h.Rows))
	switch best {
	case SelPredicted:
		stats.Predicted = h.Rows
	case SelAverage:
		stats.Average = h.Rows
	}
	if best != SelPredicted {
		w.Quantized(q)
	}
	return w.Bytes(), stats
}

// decompressReleasing decodes a wire-format Quantized, reconstructs the
// matrix and immediately returns the packed buffer to the compress pool.
func decompressReleasing(r *transport.Reader) *tensor.Matrix {
	q := r.Quantized()
	m := q.Decompress()
	q.Release()
	return m
}

// packSelector packs 2-bit approximation ids, four per byte (the paper
// ships 2 bits per vertex).
func packSelector(sel []byte) []byte {
	out := make([]byte, (len(sel)+3)/4)
	for i, s := range sel {
		out[i/4] |= (s & 3) << (uint(i%4) * 2)
	}
	return out
}

func unpackSelector(packed []byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = (packed[i/4] >> (uint(i%4) * 2)) & 3
	}
	return out
}

// ForwardRequester mirrors ForwardResponder on the requesting end (Alg. 3):
// it tracks the same trend baseline so predicted embeddings can be
// reconstructed without any wire data.
type ForwardRequester struct {
	Ttr int

	hBase *tensor.Matrix // nil before the first parsed boundary
	mcr   *tensor.Matrix
	seq   uint32 // the responder's number for the boundary hBase came from
	round int    // iteration of that boundary, −1 without one
}

// NewForwardRequester returns requester state with trend-group length ttr.
func NewForwardRequester(ttr int) *ForwardRequester {
	if ttr < 2 {
		panic(fmt.Sprintf("ec: Ttr must be ≥ 2, got %d", ttr))
	}
	return &ForwardRequester{Ttr: ttr, round: -1}
}

// Reset discards the requester's trend state; the next parsed exact
// boundary rebuilds it. A requester without a baseline decodes
// all-compressed and exact payloads fine and converts anything that needs
// a baseline into a decode error, which the degraded path absorbs.
func (q *ForwardRequester) Reset() {
	q.hBase = nil
	q.mcr = nil
	q.seq = 0
	q.round = -1
}

// Seq returns the sequence number of the boundary this requester's base
// came from (0 without one). A request carries it so the responder can tell
// a requester that lost a boundary from one in step (OutOfSync).
func (q *ForwardRequester) Seq() uint32 { return q.seq }

// InSyncWith reports whether both ends of a pair hold the same boundary:
// same sequence number and bitwise-equal base and M_cr. A diagnostic for
// tests and invariant checks; the caller serialises access to both ends.
func (q *ForwardRequester) InSyncWith(r *ForwardResponder) bool {
	if q.hBase == nil || r.hLast == nil {
		return q.hBase == nil && r.hLast == nil
	}
	return q.seq == r.seq && sameBits(q.hBase, r.hLast) && sameBits(q.mcr, r.mcr)
}

func sameBits(a, b *tensor.Matrix) bool {
	return a.SameShape(b) && slices.EqualFunc(a.Data, b.Data, func(x, y float32) bool {
		return math.Float32bits(x) == math.Float32bits(y)
	})
}

// Predict returns the requester-side linear prediction
// Ĥ_pdt = H_base + M_cr·(t mod Ttr + 1) (Eq. 7) without any wire data.
// It is the degraded-mode fallback when a ghost fetch exhausts its retries:
// the same trend state the selector exploits to skip predictable rows also
// approximates rows the network failed to deliver. ok is false before the
// first trend baseline has been received.
func (q *ForwardRequester) Predict(t int) (pdt *tensor.Matrix, ok bool) {
	if q.hBase == nil {
		return nil, false
	}
	k := float32(t%q.Ttr + 1)
	return q.hBase.Add(q.mcr.Scale(k)), true
}

// Parse decodes a ReqEC-FP payload for iteration t into the reconstructed
// ghost embedding rows. A trend boundary carries the exact rows only; the
// requester derives M_cr from them and the base it kept, with the
// responder's own arithmetic (advanceTrend). That is sound only from the
// same base, so a boundary that asks for derivation must be the one right
// after the requester's own (seq + 1); anything else means a boundary was
// lost and is a decode error. Repeats of the boundary already held and
// boundaries older than it return their rows and change nothing.
func (q *ForwardRequester) Parse(payload []byte, t int) *tensor.Matrix {
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
	case schemeSelected:
		switch flag := r.Byte(); flag {
		case 0:
			// No selector: everything compressed.
			return decompressReleasing(r)
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
				return decompressReleasing(r)
			case SelAverage:
				return pdt.Add(decompressReleasing(r)).ScaleInPlace(0.5)
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
		sel := unpackSelector(packed, n)
		filtered := decompressReleasing(r)
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

// BitTuner adapts the compression bit width from the fraction of vertices
// whose predicted approximation was selected (§IV-B): > 60 % predicted
// means compression is too lossy → double B (cap 16); < 40 % means the
// channel can afford fewer bits → halve B (floor 1).
type BitTuner struct {
	Bits int
}

// NewBitTuner starts at the given width, which must be on the menu.
func NewBitTuner(bits int) *BitTuner {
	if !compress.IsValidBits(bits) {
		panic(fmt.Sprintf("ec: invalid initial bits %d", bits))
	}
	return &BitTuner{Bits: bits}
}

// Update applies the 60/40 rule to the observed predicted proportion.
func (b *BitTuner) Update(propPredicted float64) {
	switch {
	case propPredicted > 0.6 && b.Bits < 16:
		b.Bits *= 2
	case propPredicted < 0.4 && b.Bits > 1:
		b.Bits /= 2
	}
}
