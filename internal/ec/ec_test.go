package ec

import (
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ecgraph/internal/compress"
	"ecgraph/internal/obs"
	"ecgraph/internal/tensor"
	"ecgraph/internal/transport"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float32()
	}
	return m
}

// packSelector packs a whole selector at once, the reference for
// setSelector and selectorAt.
func packSelector(sel []byte) []byte {
	out := make([]byte, (len(sel)+3)/4)
	for i, s := range sel {
		out[i/4] |= (s & 3) << (uint(i%4) * 2)
	}
	return out
}

func TestPackSelectorRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		sel := make([]byte, n)
		set := make([]byte, (n+3)/4)
		for i := range sel {
			sel[i] = byte(rng.Intn(3))
			setSelector(set, i, sel[i])
		}
		packed := packSelector(sel)
		for i := range sel {
			if selectorAt(packed, i) != sel[i] {
				return false
			}
		}
		return string(set) == string(packed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackSelectorSize(t *testing.T) {
	if got := len(packSelector(make([]byte, 9))); got != 3 {
		t.Fatalf("packed 9 selectors into %d bytes, want 3", got)
	}
}

func TestForwardExactBoundaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	resp := NewForwardResponder(4)
	req := NewForwardRequester(4)
	h := randomMatrix(rng, 5, 8)
	// t=3 is a boundary for Ttr=4.
	payload, stats := resp.Respond(h, 3, 2)
	if !stats.Exact {
		t.Fatalf("boundary response not marked exact")
	}
	got := req.Parse(payload, 3)
	if !got.Equal(h, 0) {
		t.Fatalf("exact boundary did not round trip")
	}
}

func TestForwardFirstGroupAllCompressed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	resp := NewForwardResponder(5)
	req := NewForwardRequester(5)
	h := randomMatrix(rng, 6, 10)
	payload, stats := resp.Respond(h, 0, 4)
	if stats.Exact || stats.Predicted != 0 {
		t.Fatalf("first-group stats wrong: %+v", stats)
	}
	got := req.Parse(payload, 0)
	want := compress.Compress(h, 4).Decompress()
	if !got.Equal(want, 1e-6) {
		t.Fatalf("first-group payload should be plain compression")
	}
}

func TestForwardPredictedWinsOnLinearTrend(t *testing.T) {
	// Embeddings drifting at an exactly constant rate: after one trend
	// boundary, the predictor is error-free, so almost all vertices should
	// select SelPredicted and the payload should carry (almost) no rows.
	const ttr = 4
	resp := NewForwardResponder(ttr)
	req := NewForwardRequester(ttr)
	rows, cols := 8, 6
	base := tensor.New(rows, cols)
	rate := tensor.New(rows, cols)
	rng := rand.New(rand.NewSource(3))
	for i := range base.Data {
		base.Data[i] = rng.Float32()
		rate.Data[i] = 0.01 * rng.Float32()
	}
	at := func(t int) *tensor.Matrix { return base.Add(rate.Scale(float32(t))) }

	// The first boundary (t=Ttr−1) has no prior baseline, so M_cr is only
	// meaningful from the second boundary (t=2·Ttr−1) on.
	var selectedBytes int
	for it := 0; it < 3*ttr; it++ {
		h := at(it)
		payload, stats := resp.Respond(h, it, 2)
		got := req.Parse(payload, it)
		if it >= 2*ttr && !stats.Exact {
			if stats.Predicted < stats.Rows {
				t.Fatalf("iteration %d: only %d/%d predicted on perfect linear trend", it, stats.Predicted, stats.Rows)
			}
			selectedBytes = len(payload)
			if !got.Equal(h, 1e-4) {
				t.Fatalf("iteration %d: prediction inexact", it)
			}
		}
	}
	// All rows predicted → filtered compressed matrix is empty; payload is
	// just the selector plus headers.
	if selectedBytes > 64 {
		t.Fatalf("all-predicted payload is %d bytes, expected tiny", selectedBytes)
	}
}

func TestForwardCompensationBeatsPlainCompression(t *testing.T) {
	// A slow random walk: the trend predictor captures most of the motion,
	// so ReqEC reconstruction error must be below compression-only error.
	const ttr, bits = 4, 2
	rng := rand.New(rand.NewSource(4))
	resp := NewForwardResponder(ttr)
	req := NewForwardRequester(ttr)
	rows, cols := 20, 16
	h := randomMatrix(rng, rows, cols)
	drift := tensor.New(rows, cols)
	for i := range drift.Data {
		drift.Data[i] = 0.02 * (rng.Float32() - 0.5)
	}
	var ecErr, cpErr float64
	for it := 0; it < 4*ttr; it++ {
		payload, _ := resp.Respond(h, it, bits)
		got := req.Parse(payload, it)
		ecErr += got.Sub(h).AbsSum()
		cpErr += compress.Compress(h, bits).Decompress().Sub(h).AbsSum()
		h = h.Add(drift)
		for i := range h.Data {
			h.Data[i] += 0.002 * float32(rng.NormFloat64())
		}
	}
	if ecErr >= cpErr {
		t.Fatalf("ReqEC error %v not below compression-only %v", ecErr, cpErr)
	}
}

func TestForwardRequesterResponderStayInSync(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ttr := 2 + rng.Intn(5)
		resp := NewForwardResponder(ttr)
		req := NewForwardRequester(ttr)
		rows, cols := 1+rng.Intn(10), 1+rng.Intn(10)
		h := randomMatrix(rng, rows, cols)
		for it := 0; it < 3*ttr; it++ {
			payload, _ := resp.Respond(h, it, 4)
			got := req.Parse(payload, it)
			if got.Rows != rows || got.Cols != cols {
				return false
			}
			// Reconstruction must never be wildly off (bounded by domain).
			if got.Sub(h).MaxAbs() > 2 {
				return false
			}
			for i := range h.Data {
				h.Data[i] += 0.01 * float32(rng.NormFloat64())
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestForwardInvalidTtrPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewForwardResponder(1) },
		func() { NewForwardRequester(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestBitTunerTransitions(t *testing.T) {
	bt := NewBitTuner(4)
	bt.Update(0.7) // too lossy → double
	if bt.Bits != 8 {
		t.Fatalf("Bits = %d, want 8", bt.Bits)
	}
	bt.Update(0.9)
	bt.Update(0.9)
	if bt.Bits != 16 {
		t.Fatalf("Bits capped wrong: %d", bt.Bits)
	}
	bt.Update(0.99) // cap at 16
	if bt.Bits != 16 {
		t.Fatalf("Bits exceeded cap: %d", bt.Bits)
	}
	bt.Update(0.5) // in the dead zone → unchanged
	if bt.Bits != 16 {
		t.Fatalf("dead zone changed bits: %d", bt.Bits)
	}
	for i := 0; i < 10; i++ {
		bt.Update(0.1)
	}
	if bt.Bits != 1 {
		t.Fatalf("Bits floor wrong: %d", bt.Bits)
	}
}

func TestBitTunerInvalidInitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewBitTuner(3)
}

func TestBackwardErrorFeedbackAccumulation(t *testing.T) {
	// The defining property of error feedback: the sum of delivered
	// (decompressed) gradients equals the sum of true gradients minus the
	// final residual, so nothing is ever lost permanently.
	rng := rand.New(rand.NewSource(5))
	resp := NewBackwardResponder()
	rows, cols := 10, 8
	sumTrue := tensor.New(rows, cols)
	sumDelivered := tensor.New(rows, cols)
	for it := 0; it < 30; it++ {
		g := tensor.New(rows, cols)
		for i := range g.Data {
			g.Data[i] = float32(rng.NormFloat64())
		}
		sumTrue.AddInPlace(g)
		payload := resp.Respond(g, 2)
		sumDelivered.AddInPlace(ParseMatrix(payload))
	}
	diff := sumTrue.Sub(sumDelivered).FrobeniusNorm()
	if math.Abs(diff-resp.ResidualNorm()) > 1e-3 {
		t.Fatalf("EF identity violated: ‖Σg − ΣM‖ = %v but ‖δ‖ = %v", diff, resp.ResidualNorm())
	}
}

func TestBackwardBeatsPlainCompressionCumulatively(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	resp := NewBackwardResponder()
	rows, cols := 12, 6
	var efCum, cpCum *tensor.Matrix = tensor.New(rows, cols), tensor.New(rows, cols)
	sum := tensor.New(rows, cols)
	for it := 0; it < 40; it++ {
		g := tensor.New(rows, cols)
		for i := range g.Data {
			g.Data[i] = float32(rng.NormFloat64())
		}
		sum.AddInPlace(g)
		efCum.AddInPlace(ParseMatrix(resp.Respond(g, 1)))
		cpCum.AddInPlace(ParseMatrix(RespondCompressOnlyGrad(g, 1)))
	}
	efErr := sum.Sub(efCum).FrobeniusNorm()
	cpErr := sum.Sub(cpCum).FrobeniusNorm()
	if efErr >= cpErr {
		t.Fatalf("cumulative EF error %v not below plain compression %v", efErr, cpErr)
	}
}

// TestTheorem1ResidualBound verifies the paper's Theorem 1 empirically:
// with gradients of bounded norm G and a quantiser that is an
// α-contraction, the residual norm satisfies
// ‖δ_t‖² ≤ (1+α)^{L−l}·G² / (1 − α²(1 + 1/ρ)) for all t.
func TestTheorem1ResidualBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const L, l = 3, 1
	resp := NewBackwardResponder()
	rows, cols := 15, 10

	var gBound, alpha float64
	var worstResidual float64
	for it := 0; it < 200; it++ {
		g := tensor.New(rows, cols)
		for i := range g.Data {
			g.Data[i] = float32(rng.NormFloat64())
		}
		if n := g.FrobeniusNorm(); n > gBound {
			gBound = n
		}
		// Measure the contraction factor of this step's quantisation input.
		cpt := g
		if resp.delta != nil {
			cpt = g.Add(resp.delta)
		}
		q := compress.Compress(cpt, 8)
		if n := cpt.FrobeniusNorm(); n > 0 {
			if a := q.Decompress().Sub(cpt).FrobeniusNorm() / n; a > alpha {
				alpha = a
			}
		}
		resp.Respond(g, 8)
		if r := resp.ResidualNorm(); r > worstResidual {
			worstResidual = r
		}
	}
	if alpha >= math.Sqrt2/2 {
		t.Fatalf("quantiser α = %v ≥ √2/2; theorem precondition violated (use more bits)", alpha)
	}
	// Choose ρ per the proof's constraint α < 1/√(1+ρ), ρ > 1.
	rho := 1/(alpha*alpha) - 1
	if rho > 100 {
		rho = 100
	}
	bound := math.Pow(1+alpha, L-l) * gBound * gBound / (1 - alpha*alpha*(1+1/rho))
	if worstResidual*worstResidual > bound {
		t.Fatalf("residual² %v exceeds Theorem 1 bound %v (α=%v, G=%v)", worstResidual*worstResidual, bound, alpha, gBound)
	}
}

func TestParseMatrixSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randomMatrix(rng, 4, 4)
	if got := ParseMatrix(RespondRaw(m)); !got.Equal(m, 0) {
		t.Fatalf("raw round trip failed")
	}
	got := ParseMatrix(RespondCompressOnly(m, 8))
	if got.Sub(m).MaxAbs() > compress.Compress(m, 8).MaxAbsError()+1e-6 {
		t.Fatalf("compress-only round trip error too large")
	}
}

func TestParseMatrixBadSchemePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	ParseMatrix([]byte{99, 0, 0})
}

func TestParseSelectedWithoutBaselinePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	resp := NewForwardResponder(4)
	h := randomMatrix(rng, 3, 3)
	// Advance the responder past a boundary so it emits selector payloads.
	resp.Respond(h, 3, 2) // boundary (t=3): establishes responder baseline
	payload, _ := resp.Respond(h, 4, 2)
	fresh := NewForwardRequester(4) // requester that missed the baseline
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	fresh.Parse(payload, 4)
}

// TestParseRejectsMisshapenFiltered: the filtered matrix of a vertex-wise
// payload must be exactly (non-predicted rows) × base width. The multi-pass
// decoder copied whatever fit: a 5×3 matrix under a selector that keeps 3
// of 4 rows of width 8 came back as rows like [1 1 1 0 0 0 0 0], whose
// shape the worker's decode check cannot fault.
func TestParseRejectsMisshapenFiltered(t *testing.T) {
	req := NewForwardRequester(4)
	req.Parse(encodeExact(tensor.New(4, 8), 0, 1), 3)
	sel := packSelector([]byte{SelCompressed, SelPredicted, SelCompressed, SelCompressed})
	payload := func(rows, cols int) []byte {
		m := tensor.New(rows, cols)
		m.Fill(1)
		q := compress.Compress(m, 2)
		w := transport.NewWriter(0)
		w.Byte(schemeSelected)
		w.Byte(1)
		w.Uint8s(sel)
		w.Uint32(4)
		w.Quantized(q)
		return w.Bytes()
	}
	if got := req.Parse(payload(3, 8), 4); got.Rows != 4 || got.Cols != 8 || got.At(0, 7) != 1 {
		t.Fatalf("well-shaped payload decoded to %dx%d %v", got.Rows, got.Cols, got.Row(0))
	}
	for _, shape := range [][2]int{{5, 3}, {3, 3}, {3, 9}, {2, 8}, {4, 8}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("filtered %dx%d under a selector keeping 3 rows of width 8 decoded", shape[0], shape[1])
				}
			}()
			req.Parse(payload(shape[0], shape[1]), 4)
		}()
	}
}

// TestCodecCountersCountTheWire: the compress counters count the quantised
// matrices that ship. An all-predicted in-group reply ships an empty
// filtered matrix and nothing else; the multi-pass responder also counted
// its whole-matrix quantisation, which never leaves the responder.
func TestCodecCountersCountTheWire(t *testing.T) {
	reg := obs.NewRegistry()
	compress.RegisterMetrics(reg)
	counters := func() [4]float64 {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
		var out [4]float64
		for i, name := range []string{"calls", "rows", "wire_bytes", "raw_bytes"} {
			out[i] = reg.GaugeVec("ecgraph_compress_"+name, "", "bits").With("2").Value()
		}
		return out
	}
	rng := rand.New(rand.NewSource(9))
	resp := NewForwardResponder(4)
	h := randomMatrix(rng, 100, 16)
	resp.Respond(h, 3, 2) // the first boundary: M_cr = 0, so h is predicted exactly
	before := counters()
	payload, stats := resp.Respond(h, 4, 2)
	after := counters()
	if stats.Predicted != 100 || len(payload) != 57 {
		t.Fatalf("reply predicts %d of 100 rows in %d bytes, want all in 57", stats.Predicted, len(payload))
	}
	empty := &compress.Quantized{Cols: 16, Bits: 2}
	want := [4]float64{1, 0, float64(empty.WireBytes()), float64(compress.RawWireBytes(0, 16))}
	for i := range want {
		if got := after[i] - before[i]; got != want[i] {
			t.Fatalf("counters moved by %v, want %v (calls, rows, wire, raw bytes)", [4]float64{after[0] - before[0], after[1] - before[1], after[2] - before[2], after[3] - before[3]}, want)
		}
	}
}

func BenchmarkForwardRespondSelected(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	resp := NewForwardResponder(10)
	h := randomMatrix(rng, 1024, 64)
	resp.Respond(h, 9, 2) // establish baseline
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp.Respond(h, 10+i%8, 2)
	}
}

// BenchmarkForwardParseSelected decodes in-group replies of a 1024×64 pair
// at B = 2 whose rows move by one of three scales — well inside a 2-bit
// bucket, about one bucket, far past it — so the selector mixes all three
// approximations; its bytes per op read against the 256 KiB output matrix.
func BenchmarkForwardParseSelected(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	resp, req := NewForwardResponder(10), NewForwardRequester(10)
	h := randomMatrix(rng, 1024, 64)
	payload, _ := resp.Respond(h, 9, 2) // establish baseline
	req.Parse(payload, 9)
	payloads := make([][]byte, 8)
	var stats RespondStats
	for i := range payloads {
		moved := h.Clone()
		for v := 0; v < moved.Rows; v++ {
			scale := []float32{0.005, 0.08, 2}[v%3]
			for j := range moved.Row(v) {
				moved.Row(v)[j] += scale * float32(rng.NormFloat64())
			}
		}
		var s RespondStats
		payloads[i], s = resp.Respond(moved, 10+i, 2)
		stats.Rows += s.Rows
		stats.Predicted += s.Predicted
		stats.Average += s.Average
	}
	if stats.Predicted == 0 || stats.Average == 0 || stats.Predicted+stats.Average == stats.Rows {
		b.Fatalf("selector does not mix the approximations: %+v", stats)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Parse(payloads[i%8], 10+i%8)
	}
}

func BenchmarkBackwardRespond(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	resp := NewBackwardResponder()
	g := randomMatrix(rng, 1024, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp.Respond(g, 2)
	}
}

func TestMatrixWiseGranularityRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	resp := NewForwardResponder(4)
	resp.Granularity = GranularityMatrix
	req := NewForwardRequester(4)
	h := randomMatrix(rng, 10, 6)
	for it := 0; it < 12; it++ {
		payload, stats := resp.Respond(h, it, 4)
		got := req.Parse(payload, it)
		if got.Rows != 10 || got.Cols != 6 {
			t.Fatalf("iteration %d: wrong shape", it)
		}
		if got.Sub(h).MaxAbs() > 1 {
			t.Fatalf("iteration %d: reconstruction way off", it)
		}
		if stats.Predicted != 0 && stats.Predicted != stats.Rows {
			t.Fatalf("matrix-wise must be all-or-nothing predicted: %+v", stats)
		}
		for i := range h.Data {
			h.Data[i] += 0.01 * float32(rng.NormFloat64())
		}
	}
}

func TestMatrixWisePredictedOnPerfectTrend(t *testing.T) {
	const ttr = 4
	resp := NewForwardResponder(ttr)
	resp.Granularity = GranularityMatrix
	req := NewForwardRequester(ttr)
	rng := rand.New(rand.NewSource(22))
	base := randomMatrix(rng, 6, 4)
	rate := tensor.New(6, 4)
	for i := range rate.Data {
		rate.Data[i] = 0.02 * rng.Float32()
	}
	var predictedPayload int
	for it := 0; it < 3*ttr; it++ {
		h := base.Add(rate.Scale(float32(it)))
		payload, stats := resp.Respond(h, it, 1)
		got := req.Parse(payload, it)
		if it >= 2*ttr && !stats.Exact {
			if stats.Predicted != stats.Rows {
				t.Fatalf("iteration %d: matrix-wise did not pick predicted on a perfect trend", it)
			}
			predictedPayload = len(payload)
			if !got.Equal(h, 1e-4) {
				t.Fatalf("iteration %d: prediction inexact", it)
			}
		}
	}
	if predictedPayload > 16 {
		t.Fatalf("matrix-wise predicted payload %d bytes, expected a handful", predictedPayload)
	}
}

func TestMatrixWiseVsVertexWisePayloadTradeoff(t *testing.T) {
	// Vertex-wise pays 2 bits per vertex but can drop individual rows;
	// matrix-wise pays 1 byte total but ships everything when any row needs
	// data. On embeddings where half the rows follow the trend, vertex-wise
	// should produce smaller payloads.
	const ttr, bits = 4, 8
	rngV := rand.New(rand.NewSource(23))
	vertexResp := NewForwardResponder(ttr)
	matrixResp := NewForwardResponder(ttr)
	matrixResp.Granularity = GranularityMatrix
	rows, cols := 40, 16
	base := randomMatrix(rngV, rows, cols)
	rate := tensor.New(rows, cols)
	for i := 0; i < rows/2; i++ { // half the rows drift linearly
		for j := 0; j < cols; j++ {
			rate.Set(i, j, 0.01*rngV.Float32())
		}
	}
	var vBytes, mBytes int
	for it := 0; it < 3*ttr; it++ {
		h := base.Add(rate.Scale(float32(it)))
		// Non-trending rows jitter so compression is needed for them.
		for i := rows / 2; i < rows; i++ {
			for j := 0; j < cols; j++ {
				h.Set(i, j, h.At(i, j)+0.3*rngV.Float32())
			}
		}
		pv, _ := vertexResp.Respond(h, it, bits)
		pm, _ := matrixResp.Respond(h, it, bits)
		if it >= 2*ttr {
			vBytes += len(pv)
			mBytes += len(pm)
		}
	}
	if vBytes >= mBytes {
		t.Fatalf("vertex-wise %dB not below matrix-wise %dB on mixed-trend rows", vBytes, mBytes)
	}
}

func TestTopKResponderErrorFeedback(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	resp := NewTopKResponder(2)
	rows, cols := 10, 8
	sumTrue := tensor.New(rows, cols)
	sumSent := tensor.New(rows, cols)
	for it := 0; it < 40; it++ {
		g := tensor.New(rows, cols)
		for i := range g.Data {
			g.Data[i] = float32(rng.NormFloat64())
		}
		sumTrue.AddInPlace(g)
		sumSent.AddInPlace(ParseMatrix(resp.Respond(g)))
	}
	diff := sumTrue.Sub(sumSent).FrobeniusNorm()
	if residual := resp.delta.FrobeniusNorm(); math.Abs(diff-residual) > 1e-3 {
		t.Fatalf("Top-K EF identity violated: %v vs %v", diff, residual)
	}
}

func TestTopKResponderPayloadWithinBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	resp := NewTopKResponder(2)
	g := randomMatrix(rng, 64, 32)
	payload := resp.Respond(g)
	// 2-bit budget on 2048 elements = 512 bytes; allow headers.
	if len(payload) > 512+64 {
		t.Fatalf("Top-K payload %d bytes exceeds 2-bit budget", len(payload))
	}
}

func TestNewTopKResponderInvalidBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewTopKResponder(3)
}

// TestReplyWritersSizedExactly checks that every backward and ablation reply
// writer reserves exactly the bytes it writes, so no reply grows its buffer
// while it is encoded nor carries spare capacity onto the wire.
func TestReplyWritersSizedExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range [][2]int{{1, 1}, {7, 5}, {33, 16}} {
		m := randomMatrix(rng, shape[0], shape[1])
		for name, payload := range map[string][]byte{
			"BackwardResponder.Respond": NewBackwardResponder().Respond(m, 2),
			"TopKResponder.Respond":     NewTopKResponder(2).Respond(m),
			"RespondCompressOnly":       RespondCompressOnly(m, 4),
			"RespondCompressOnlyGrad":   RespondCompressOnlyGrad(m, 1),
			"RespondRaw":                RespondRaw(m),
		} {
			if cap(payload) != len(payload) {
				t.Errorf("%dx%d %s: %d bytes written into a %d-byte buffer", shape[0], shape[1], name, len(payload), cap(payload))
			}
		}
	}
}
