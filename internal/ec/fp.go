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
	"encoding/binary"
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
	schemeDelta    = 5 // ReqEC trend boundary over the held base: zero-centred H − base + boundary seq
)

// boundaryBits is the width of a delta boundary's zero-centred grid. A
// scheduled boundary over a base both ends hold ships d = H − base on 2^B−1
// levels instead of H at 32 bits; the base moves by the decoded d̂, so the
// next boundary's d carries this one's residual and |H − base|∞ stays within
// max|d|/(2^B−2). Eight bits is the fewest-bytes width of the measured sweep
// (EXPERIMENTS.md, "Delta-coded trend boundary") that keeps the full-graph
// oracle of the compensated exchange and test accuracy inside the exact
// boundary's spread on every EC workload; four and two bits fail the oracle.
const boundaryBits = 8

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
	Rows      int  // vertices covered by this response
	Predicted int  // vertices for which the predicted approximation won
	Average   int  // vertices for which the running average won
	Boundary  bool // a trend boundary (exact or delta): no selector was run
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

	// The payload of the last boundary when it was a delta (empty when it
	// was exact): the base has moved past the rows it was coded from, so a
	// repeat of its round is answered from these bytes.
	delta []byte

	// The packed selector of the in-group rounds, reallocated only when the
	// pair's row count changes.
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
// round after ForceExact) it moves the trend base both ends hold: a
// scheduled boundary over a base ships H − base at boundaryBits (a delta
// boundary), the first one, a forced one, and any whose delta would not be
// smaller or is not finite ship H exactly; the requester derives the same
// base and M_cr this end keeps. Otherwise it evaluates the three
// approximations, selects per vertex, and ships only what the requester
// cannot predict.
//
// A boundary is idempotent per round: a repeat of the round that served the
// last boundary (a transport retry, a leaked duplicate of a failed attempt)
// gets the same bytes and leaves the pair alone. A round older than that
// boundary can only be a late duplicate nobody waits for; it is answered
// with exact rows that claim nothing about the pair (flag 0, seq 0) and
// mutates nothing.
func (r *ForwardResponder) Respond(h *tensor.Matrix, t, bits int) ([]byte, RespondStats) {
	boundary := RespondStats{Rows: h.Rows, Boundary: true}
	switch {
	case t == r.round && len(r.delta) > 0:
		return slices.Clone(r.delta), boundary
	case t == r.round:
		return encodeExact(r.hLast, r.derived, r.seq), boundary
	case t < r.round:
		return encodeExact(h, 0, 0), boundary
	case !r.forceExact && (t+1)%r.Ttr == 0 && r.hLast != nil:
		if payload := r.respondDelta(h, t); payload != nil {
			return payload, boundary
		}
		fallthrough
	case r.forceExact || (t+1)%r.Ttr == 0:
		r.boundary(h, t)
		return encodeExact(h, r.derived, r.seq), boundary
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
	r.delta = nil
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
	r.delta = r.delta[:0]
}

// advanceTrend sets mcr = (h − base)/ttr and then base = h, in place.
func advanceTrend(mcr, base, h *tensor.Matrix, ttr int) {
	if !h.SameShape(base) {
		panic(fmt.Sprintf("ec: trend boundary of %dx%d rows over a %dx%d base", h.Rows, h.Cols, base.Rows, base.Cols))
	}
	inv := 1 / float32(ttr)
	md, bd := mcr.Data, base.Data
	for i, x := range h.Data {
		moveBase(&md[i], &bd[i], x, inv)
	}
}

// moveBase is one element of every trend boundary, exact or delta, at both
// ends of a pair: M_cr = (x − base)/T_tr — a float32 subtraction rounded to
// float32, then one multiplication by 1/T_tr — and then base = x. Both ends
// run exactly this on the same x, which is why the requester's derived base
// and M_cr equal the responder's bit for bit.
func moveBase(mcr, base *float32, x, inv float32) {
	*mcr = float32(x-*base) * inv
	*base = x
}

// respondDelta serves a scheduled boundary over the held base as a delta:
// d = H − base on the zero-centred grid at boundaryBits (compress.ZeroGrid,
// domain ±max|d|), then seq. It makes one pass for max|d| and one that
// quantises each element, packs its id and moves the base to base + d̂
// (moveBase), so the requester's decode of the payload lands on the same
// base and M_cr. It returns nil, touching nothing, when max|d| or the grid's
// span 2·max|d| is not finite or when the delta is not smaller than the
// exact payload; the caller then ships H exactly.
func (r *ForwardResponder) respondDelta(h *tensor.Matrix, t int) []byte {
	if !h.SameShape(r.hLast) {
		panic(fmt.Sprintf("ec: trend boundary of %dx%d rows over a %dx%d base", h.Rows, h.Cols, r.hLast.Rows, r.hLast.Cols))
	}
	// max|d| as the largest bit pattern of |d|: non-negative float32s order
	// as their bits do, so the pass has no branch, and +Inf and NaN sort
	// above every finite value, so one comparison afterwards rejects them
	// along with a span 2·max|d| that would overflow.
	bd, md := r.hLast.Data, r.mcr.Data
	var mb uint32
	for i, x := range h.Data {
		mb = max(mb, math.Float32bits(x-bd[i])&^(1<<31))
	}
	if mb > math.Float32bits(math.MaxFloat32/2) {
		return nil
	}
	mx := math.Float32frombits(mb)
	q := compress.NewQuantized(h.Rows, h.Cols, boundaryBits, -mx, mx)
	defer q.Release()
	q.ZeroCentered = true
	size := 1 + transport.QuantizedSize(q) + 4
	if size >= exactSize(h) {
		return nil
	}
	// One word of ids at a time; the level values come from the grid's
	// table (2^B entries).
	g := q.ZeroGrid()
	var valueBuf [1 << boundaryBits]float32
	values := q.Values(valueBuf[:])
	inv := 1 / float32(r.Ttr)
	const perWord = 64 / boundaryBits
	hd := h.Data
	for wi := range q.Packed {
		lo := wi * perWord
		hi := min(lo+perWord, len(hd))
		var word uint64
		for i := lo; i < hi; i++ {
			b := bd[i]
			id := g.ID(float32(hd[i] - b))
			word |= uint64(id) << (uint(i-lo) * boundaryBits)
			moveBase(&md[i], &bd[i], b+values[id], inv)
		}
		q.Packed[wi] = word
	}
	r.seq++
	r.round = t
	w := transport.NewWriter(size)
	w.Byte(schemeDelta)
	w.Quantized(q)
	w.Uint32(r.seq)
	r.delta = append(r.delta[:0], w.Bytes()...)
	return w.Bytes()
}

// exactSize is the length of an exact boundary payload for h.
func exactSize(h *tensor.Matrix) int { return 14 + len(h.Data)*4 }

// encodeExact writes a trend-boundary payload: the exact rows, whether the
// requester must derive M_cr from its previous base (1) or start from
// M_cr = 0 (0), and the boundary's sequence number.
func encodeExact(h *tensor.Matrix, derived byte, seq uint32) []byte {
	w := transport.NewWriter(exactSize(h))
	w.Byte(schemeExact)
	w.Matrix(h)
	w.Byte(derived)
	w.Uint32(seq)
	return w.Bytes()
}

// respondSelected builds an in-group reply. Without a trend baseline (the
// first group of the run) only the compressed approximation exists, and an
// all-compressed selector is encoded compactly as "no selector" (flag 0).
func (r *ForwardResponder) respondSelected(h *tensor.Matrix, t, bits int) ([]byte, RespondStats) {
	stats := RespondStats{Rows: h.Rows}
	switch {
	case r.hLast == nil:
		q := compress.Compress(h, bits)
		defer q.Release()
		w := transport.NewWriter(2 + transport.QuantizedSize(q))
		w.Byte(schemeSelected)
		w.Byte(0)
		w.Quantized(q)
		return w.Bytes(), stats
	case !h.SameShape(r.hLast):
		panic(fmt.Sprintf("ec: in-group rows %dx%d over a %dx%d base", h.Rows, h.Cols, r.hLast.Rows, r.hLast.Cols))
	case r.Granularity == GranularityMatrix:
		return r.respondMatrixWise(h, t, bits, stats)
	}

	// One walk per vertex (DESIGN.md §7): per element, in the order the
	// whole-matrix form used — the bucket id of x over the matrix's domain
	// and its value c (Ĥ_cps), Ĥ_pdt = H_base + M_cr·k (Eq. 7),
	// Ĥ_avg = (Ĥ_pdt + Ĥ_cps)/2 (Eq. 9), each rounded to float32 — and the
	// three L1 distances to h (Eq. 10); then the arg-min. Rows that need
	// data on the wire (§IV-B: predicted rows "do not need to send the
	// compressed values") travel as the ids of c re-quantised over the same
	// domain, which is what quantising the decoded rows again gives. They
	// are packed as the walk goes; a row that turns out predicted rewinds
	// the packer to where the row began. Both per-id maps are tables of
	// 2^B entries: values[id] is c, requant[id] the id c re-quantises to.
	lo, hi := h.MinMax()
	q := compress.NewQuantized(h.Rows, h.Cols, bits, lo, hi)
	defer q.Release()
	g := q.Grid()
	var valueBuf [256]float32
	var requantBuf [256]uint16
	values, requant := q.Values(valueBuf[:]), requantBuf[:]
	if len(values) > len(requant) {
		requant = make([]uint16, len(values))
	}
	for id, c := range values {
		requant[id] = uint16(g.ID(c))
	}
	if len(r.sel) != (h.Rows+3)/4 {
		r.sel = make([]byte, (h.Rows+3)/4)
	}
	clear(r.sel)
	k := trendStep(t, r.Ttr)
	words, kept := q.Packed, 0
	var word uint64
	wi, shift := 0, 0
	for v := 0; v < h.Rows; v++ {
		hr, br, mr := h.Row(v), r.hLast.Row(v), r.mcr.Row(v)
		rowWord, rowWI, rowShift := word, wi, shift
		var dc, dp, da float64
		for j, x := range hr {
			id := g.ID(x)
			c := values[id]
			p := predict(br[j], mr[j], k)
			a := float32(p+c) * 0.5
			dc += math.Abs(float64(x - c))
			dp += math.Abs(float64(x - p))
			da += math.Abs(float64(x - a))
			word |= uint64(requant[id]) << shift
			if shift += bits; shift == 64 {
				words[wi] = word
				wi, word, shift = wi+1, 0, 0
			}
		}
		best := SelCompressed
		bd := dc
		if dp < bd {
			best, bd = SelPredicted, dp
		}
		if da < bd {
			best = SelAverage
		}
		setSelector(r.sel, v, byte(best))
		switch best {
		case SelPredicted:
			stats.Predicted++
			word, wi, shift = rowWord, rowWI, rowShift
			continue
		case SelAverage:
			stats.Average++
		}
		kept++
	}
	if shift > 0 {
		words[wi] = word
	}
	q.TruncateRows(kept)

	w := transport.NewWriter(2 + 4 + len(r.sel) + 4 + transport.QuantizedSize(q))
	w.Byte(schemeSelected)
	w.Byte(1)
	w.Uint8s(r.sel)
	w.Uint32(uint32(h.Rows))
	w.Quantized(q)
	return w.Bytes(), stats
}

// trendStep is k = t mod T_tr + 1, the number of M_cr steps iteration t
// lies past the last trend boundary.
func trendStep(t, ttr int) float32 { return float32(t%ttr + 1) }

// predict is one element of Ĥ_pdt = H_base + M_cr·k (Eq. 7), the product
// rounded to float32 before the sum. Every prediction — the responder's
// selector, the requester's decode of both selectors and its degraded
// fallback — is this expression, so both ends agree bit for bit.
func predict(base, mcr, k float32) float32 { return base + float32(k*mcr) }

// predictRow writes predict over a row (or a whole matrix's data) into dst.
func predictRow(dst, base, mcr []float32, k float32) {
	for j, b := range base {
		dst[j] = predict(b, mcr[j], k)
	}
}

// predicted returns Ĥ_pdt for the trend state base, mcr at step k.
func predicted(base, mcr *tensor.Matrix, k float32) *tensor.Matrix {
	out := tensor.New(base.Rows, base.Cols)
	predictRow(out.Data, base.Data, mcr.Data, k)
	return out
}

// respondMatrixWise picks one approximation for the entire message: a
// single id byte plus, unless predicted wins, the compressed matrix.
func (r *ForwardResponder) respondMatrixWise(h *tensor.Matrix, t, bits int, stats RespondStats) ([]byte, RespondStats) {
	q := compress.Compress(h, bits)
	defer q.Release()
	cps := q.Decompress()
	pdt := predicted(r.hLast, r.mcr, trendStep(t, r.Ttr))
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
	w := transport.NewWriter(2 + 5 + transport.QuantizedSize(q))
	w.Byte(schemeSelected)
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
	bits := func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) }
	return q.seq == r.seq && q.hBase.SameShape(r.hLast) && q.mcr.SameShape(r.mcr) &&
		slices.EqualFunc(q.hBase.Data, r.hLast.Data, bits) && slices.EqualFunc(q.mcr.Data, r.mcr.Data, bits)
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
	return predicted(q.hBase, q.mcr, trendStep(t, q.Ttr)), true
}

// Parse decodes a ReqEC-FP payload for iteration t into the reconstructed
// ghost embedding rows. An exact trend boundary carries the rows; a delta
// boundary carries how far they moved from the base the requester kept. Either
// way the requester moves its base and derives M_cr with the responder's own
// arithmetic (moveBase). That is sound only from the same base, so a
// boundary that asks for derivation must be the one right after the
// requester's own (seq + 1), and a delta must cover the base's shape;
// anything else means a boundary was lost and is a decode error. A repeat of
// the boundary already held returns its rows (for a delta, a copy of the
// base) and changes nothing, as does an exact boundary older than it.
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
	case schemeDelta:
		d, words := r.QuantizedWords()
		seq := r.Uint32()
		switch {
		case t == q.round && seq == q.seq:
			return q.hBase.Clone()
		case q.hBase == nil || seq != q.seq+1 || t <= q.round:
			panic(fmt.Sprintf("ec: delta boundary %d at round %d, requester holds boundary %d of round %d", seq, t, q.seq, q.round))
		case !d.ZeroCentered || d.Rows != q.hBase.Rows || d.Cols != q.hBase.Cols:
			panic(fmt.Sprintf("ec: delta of %dx%d rows (zero-centred %v) over a %dx%d base", d.Rows, d.Cols, d.ZeroCentered, q.hBase.Rows, q.hBase.Cols))
		}
		out := q.applyDelta(&d, words)
		q.seq, q.round = seq, t
		return out
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
				pdt = predicted(q.hBase, q.mcr, trendStep(t, q.Ttr))
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
		return q.parseVertexWise(r, t)
	default:
		panic(fmt.Sprintf("ec: unexpected forward scheme %d", scheme))
	}
}

// applyDelta moves the base by a delta boundary's decoded rows in one walk
// over its packed ids (little-endian words straight from the payload) and
// returns a copy of the new base: base + d̂ and M_cr through moveBase, d̂
// the zero-centred level value (the grid's table, compress.ZeroGrid), as the
// responder did.
func (q *ForwardRequester) applyDelta(d *compress.Quantized, words []byte) *tensor.Matrix {
	var small [1 << boundaryBits]float32
	values := d.Values(small[:])
	inv := 1 / float32(q.Ttr)
	bd, md := q.hBase.Data, q.mcr.Data
	out := tensor.New(q.hBase.Rows, q.hBase.Cols)
	bits, mask := uint(d.Bits), uint64(1)<<d.Bits-1
	perWord := 64 / d.Bits
	for lo := 0; lo < len(bd); lo += perWord {
		word := binary.LittleEndian.Uint64(words[lo/perWord*8:])
		for i := lo; i < min(lo+perWord, len(bd)); i++ {
			moveBase(&md[i], &bd[i], bd[i]+values[word&mask], inv)
			out.Data[i] = bd[i]
			word >>= bits
		}
	}
	return out
}

// parseVertexWise decodes the rest of a vertex-wise selected payload in one
// walk over the selector, straight from the packed words into the output:
// a predicted row is Ĥ_pdt, a compressed row the bucket values of its ids,
// an average row (Ĥ_pdt + Ĥ_cps)/2. The filtered rows must be exactly the
// non-predicted rows at the base's width.
func (q *ForwardRequester) parseVertexWise(r *transport.Reader, t int) *tensor.Matrix {
	packed := r.Uint8s()
	n := int(r.Uint32())
	if q.hBase == nil {
		panic("ec: selected payload with selector before any trend baseline")
	}
	if n != q.hBase.Rows || len(packed) != (n+3)/4 {
		panic(fmt.Sprintf("ec: selector for %d rows in %d bytes over a %d-row base", n, len(packed), q.hBase.Rows))
	}
	kept := 0
	for v := 0; v < n; v++ {
		switch selectorAt(packed, v) {
		case SelPredicted:
		case SelCompressed, SelAverage:
			kept++
		default:
			panic(fmt.Sprintf("ec: invalid selector id %d", selectorAt(packed, v)))
		}
	}
	filtered, words := r.QuantizedWords()
	cols := q.hBase.Cols
	if filtered.Rows != kept || filtered.Cols != cols {
		panic(fmt.Sprintf("ec: %d non-predicted rows of width %d shipped as a %dx%d matrix", kept, cols, filtered.Rows, filtered.Cols))
	}
	var small [256]float32
	var table []float32
	if kept > 0 {
		table = filtered.Values(small[:])
	}
	bits, mask := uint(filtered.Bits), uint64(1)<<filtered.Bits-1
	k := trendStep(t, q.Ttr)
	out := tensor.New(n, cols)
	var word uint64
	next, shift := 0, uint(64) // the next word to load, the bit offset in word
	id := func() uint64 {
		if shift == 64 {
			word = binary.LittleEndian.Uint64(words[8*next:])
			next, shift = next+1, 0
		}
		b := word >> shift & mask
		shift += bits
		return b
	}
	for v := 0; v < n; v++ {
		orow := out.Row(v)
		switch selectorAt(packed, v) {
		case SelPredicted:
			predictRow(orow, q.hBase.Row(v), q.mcr.Row(v), k)
		case SelCompressed:
			for j := range orow {
				orow[j] = table[id()]
			}
		case SelAverage:
			br, mr := q.hBase.Row(v), q.mcr.Row(v)
			for j := range orow {
				orow[j] = (predict(br[j], mr[j], k) + table[id()]) / 2
			}
		}
	}
	return out
}

// The selector ships 2 bits per vertex, four vertices per byte (§IV-B).
// setSelector records vertex v's approximation id in a packed selector
// whose bits for v are clear; selectorAt reads it back.
func setSelector(packed []byte, v int, id byte) { packed[v/4] |= id << (uint(v%4) * 2) }

func selectorAt(packed []byte, v int) byte { return packed[v/4] >> (uint(v%4) * 2) & 3 }

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
