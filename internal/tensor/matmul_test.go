package tensor

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The three loops the dense products ran before the four-term row kernel,
// kept verbatim except that each product is rounded by an explicit
// conversion (which is what the unfused amd64 build always did). They are
// the bitwise oracle: every output element of MatMul, MatMulRowsInto, TMatMul
// and MatMulT must see exactly this float32 operation sequence.

func refMatMul(m, n *Matrix) *Matrix {
	out := New(m.Rows, n.Cols)
	K, N := m.Cols, n.Cols
	for i := 0; i < m.Rows; i++ {
		mrow := m.Data[i*K : (i+1)*K]
		orow := out.Data[i*N : (i+1)*N]
		for k, a := range mrow {
			if a == 0 {
				continue
			}
			nrow := n.Data[k*N : (k+1)*N]
			for j, b := range nrow {
				orow[j] += float32(a * b)
			}
		}
	}
	return out
}

func refMatMulT(m, n *Matrix) *Matrix {
	out := New(m.Rows, n.Rows)
	K := m.Cols
	for i := 0; i < m.Rows; i++ {
		mrow := m.Data[i*K : (i+1)*K]
		orow := out.Data[i*n.Rows : (i+1)*n.Rows]
		for j := 0; j < n.Rows; j++ {
			nrow := n.Data[j*K : (j+1)*K]
			var acc float32
			for k, a := range mrow {
				acc += float32(a * nrow[k])
			}
			orow[j] = acc
		}
	}
	return out
}

func refTMatMul(m, n *Matrix) *Matrix {
	out := New(m.Cols, n.Cols)
	N := n.Cols
	for r := 0; r < m.Rows; r++ {
		mrow := m.Data[r*m.Cols : (r+1)*m.Cols]
		nrow := n.Data[r*N : (r+1)*N]
		for c := 0; c < m.Cols; c++ {
			a := mrow[c]
			if a == 0 {
				continue
			}
			orow := out.Data[c*N : (c+1)*N]
			for j, b := range nrow {
				orow[j] += float32(a * b)
			}
		}
	}
	return out
}

// operand fills a rows×cols matrix whose entries are nonzero with
// probability density.
func operand(rng *rand.Rand, rows, cols int, density float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		if rng.Float64() < density {
			m.Data[i] = float32(rng.NormFloat64())
		}
	}
	return m
}

// oddOperand is operand with a quarter of the zeros turned into -0 (which the
// kernels must skip like +0) and a sixteenth of the nonzeros into denormals.
// Timed code gets none of these: arithmetic on a denormal takes a microcode
// assist of a hundred cycles and more.
func oddOperand(rng *rand.Rand, rows, cols int, density float64) *Matrix {
	m := operand(rng, rows, cols, density)
	for i, v := range m.Data {
		switch {
		case v == 0 && rng.Intn(4) == 0:
			m.Data[i] = float32(math.Copysign(0, -1))
		case v != 0 && rng.Intn(16) == 0:
			m.Data[i] = math.Float32frombits(1 + uint32(rng.Intn(1<<23-1)))
		}
	}
	return m
}

func sameBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element [%d][%d] = %v (%#08x), want %v (%#08x)", what, i/got.Cols, i%got.Cols,
				v, math.Float32bits(v), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// TestProductsMatchReferenceBitwise sweeps the shapes at which the kernels
// change path — inner sizes around the pure-Go loop's four-term pass and
// around gatherTerms, where a term list is split; output widths around the
// 8-lane split and the panels; band dimensions around TMatMul's 16-column
// band and heights around its row chunk; row counts below and above the
// parallel crossover — at every left-operand density from empty to full,
// with MatMulRowsInto's row list out of order; the rows above the crossover
// run inline, on two Ps and on more Ps than some of these shapes have bands.
func TestProductsMatchReferenceBitwise(t *testing.T) {
	eachKernel(t, testProductsMatchReferenceBitwise)
}

func testProductsMatchReferenceBitwise(t *testing.T) {
	// 97 and 201 span two and three of MatMul's L1 blocks at width 64; below
	// width 24 a block is longer than gatherTerms, which splits its lists.
	lists := []int{gatherTerms - 1, gatherTerms, gatherTerms + 1, 2*gatherTerms + 1}
	inners := append([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 15, 17, 31, 33, 97, 201}, lists...)
	widths := []int{1, 7, 8, 9, 16, 47, 64}
	densities := []float64{0, 0.05, 0.25, 0.5, 1}
	rng := rand.New(rand.NewSource(15))
	check := func(tag string, rows, k, width int, density float64) {
		tag = fmt.Sprintf("%s rows=%d inner=%d width=%d density=%g", tag, rows, k, width, density)
		m := oddOperand(rng, rows, k, density)
		n := oddOperand(rng, k, width, 0.9)
		want := refMatMul(m, n)
		sameBits(t, "MatMul "+tag, m.MatMul(n), want)

		var idx []int32
		for i := 0; i < rows; i++ {
			if i%3 != 1 {
				idx = append(idx, int32(i))
			} else {
				copy(want.Row(i), make([]float32, width))
			}
		}
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		into := New(rows, width)
		m.MatMulRowsInto(n, into, idx)
		sameBits(t, "MatMulRowsInto "+tag, into, want)

		nt := oddOperand(rng, width, k, 0.9)
		sameBits(t, "MatMulT "+tag, m.MatMulT(nt), refMatMulT(m, nt))
	}
	// TMatMul's inner index is the row, its band dimension m's columns.
	checkT := func(tag string, inner, cols, width int, density float64) {
		tag = fmt.Sprintf("%s inner=%d m.Cols=%d width=%d density=%g", tag, inner, cols, width, density)
		m := oddOperand(rng, inner, cols, density)
		n := oddOperand(rng, inner, width, 0.9)
		sameBits(t, "TMatMul "+tag, m.TMatMul(n), refTMatMul(m, n))
	}
	bandCols := []int{1, 15, 16, 17, 256}
	for _, density := range densities {
		for _, width := range widths {
			for i, k := range inners {
				for rows := 1; rows <= 5; rows++ {
					check("inline", rows, k, width, density)
				}
				checkT("inline", k, bandCols[i%len(bandCols)], width, density)
			}
			h := tmatmulRows(width)
			for i, inner := range []int{h - 1, h, h + 1, 2*h + 1} {
				checkT("inline", inner, bandCols[i%3+1], width, density)
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 5} {
		runtime.GOMAXPROCS(procs)
		tag := fmt.Sprintf("P=%d", procs)
		for _, density := range densities {
			for _, width := range widths {
				for _, k := range append([]int{5, 16, 33, 201}, lists[:3]...) {
					check(tag, max(40, parallelThreshold/(k*width)+3), k, width, density)
				}
				// Heights one either side of a whole number of row chunks.
				h := tmatmulRows(width)
				for i, cols := range bandCols[1:] {
					chunks := parallelThreshold/(cols*width*h) + 2
					checkT(tag, chunks*h+i%3-1, cols, width, density)
				}
			}
		}
	}
}

// FuzzProductsMatchReference holds the three dense products, under both
// kernels, to the one-term loops over arbitrary bit patterns — infinities
// and NaN included, which the sweep above leaves out: a NaN entry of the
// left operand is a term, Inf·0 makes one mid-sum. The first four bytes
// pick the rows, inner size (past two term lists and several TMatMul row
// chunks) and width; the floats after them fill the operands, repeated as
// needed.
func FuzzProductsMatchReference(f *testing.F) {
	seed := make([]byte, 4+4*61)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	seed[0], seed[3] = 4, 8
	binary.LittleEndian.PutUint16(seed[1:], 2*gatherTerms+1)
	f.Add(seed)
	// Nothing ordinary: +Inf, NaN, the smallest denormal and -0.
	f.Add([]byte{2, 9, 0, 15, 0, 0, 0x80, 0x7f, 0, 0, 0xc0, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		rows := 1 + int(data[0])%17
		inner := int(binary.LittleEndian.Uint16(data[1:])) % (2*gatherTerms + 2)
		width := 1 + int(data[3])%17
		vals := make([]float32, (len(data)-4)/4)
		for j := range vals {
			vals[j] = math.Float32frombits(binary.LittleEndian.Uint32(data[4+4*j:]))
		}
		next := 0
		fill := func(r, c int) *Matrix {
			m := New(r, c)
			for j := range m.Data {
				m.Data[j] = vals[next%len(vals)]
				next++
			}
			return m
		}
		m, n, w := fill(rows, inner), fill(inner, width), fill(width, inner)
		tall := m.T()
		for _, on := range []bool{haveAVX2, false} {
			func() {
				defer func(was bool) { haveAVX2 = was }(haveAVX2)
				haveAVX2 = on
				sameLanes(t, "MatMul", m.MatMul(n).Data, refMatMul(m, n).Data)
				sameLanes(t, "TMatMul", tall.TMatMul(n).Data, refTMatMul(tall, n).Data)
				sameLanes(t, "MatMulT", m.MatMulT(w).Data, refMatMulT(m, w).Data)
			}()
		}
	})
}

// goldenShapes are the layer shapes (owned rows, input width, output width)
// of worker 0 in each benchmark workload.
var goldenShapes = []struct {
	workload string
	layers   [][3]int
	want     uint64
}{
	{"train-dense", [][3]int{{10832, 256, 64}, {10832, 64, 64}, {10832, 64, 7}}, 0x950dc1f5543ee0cc},
	{"train-fold", [][3]int{{1800, 128, 16}, {1800, 16, 8}}, 0xd03a45700ce6fdb4},
	{"train-wire", [][3]int{{4000, 100, 16}, {4000, 16, 16}}, 0x49b20492e5d83f2f},
	{"serve-online", [][3]int{{4000, 100, 64}, {4000, 64, 16}}, 0x549559c0a957ca12},
}

// TestProductsGolden pins the bits of the three products at the workloads'
// shapes to constants recorded with the one-term loops above in production
// (commit b55702a), so that "bit-for-bit the parent" is checked here and
// not only by the benchmark's trajectory checksum.
func TestProductsGolden(t *testing.T) {
	eachKernel(t, testProductsGolden)
}

func testProductsGolden(t *testing.T) {
	for _, g := range goldenShapes {
		rng := rand.New(rand.NewSource(15))
		h := fnv.New64a()
		hash := func(m *Matrix) {
			var b [4]byte
			for _, v := range m.Data {
				u := math.Float32bits(v)
				b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
				h.Write(b[:])
			}
		}
		for l, s := range g.layers {
			rows, in, width := s[0], s[1], s[2]
			density := 0.5 // a ReLU output
			if l == 0 {
				density = 0.2 // ÂX
			}
			ah := operand(rng, rows, in, density)
			w := operand(rng, in, width, 1)
			grad := operand(rng, rows, width, 0.5)
			hash(ah.MatMul(w))
			hash(ah.TMatMul(grad))
			hash(grad.MatMulT(w))
		}
		if got := h.Sum64(); got != g.want {
			t.Errorf("%s: products hash %#016x, want %#016x", g.workload, got, g.want)
		}
	}
}

// TestProductsAllocateOnlyTheirResult holds the dense products to the heap
// allocations of what they return: their term lists live in stack arrays,
// and below the parallel crossover they make no closure for the parallel
// loop. Every shape here splits its lists — MatMul's and MatMulT's at
// gatherTerms, TMatMul's at its row chunk — so the split is on the path
// measured.
func TestProductsAllocateOnlyTheirResult(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const rows, inner, width = 12, 2*gatherTerms + 1, 5
	m := operand(rng, rows, inner, 0.5)
	n := operand(rng, inner, width, 1)
	w := operand(rng, width, inner, 1)
	tall := operand(rng, 2*tmatmulRows(8)+1, 8, 0.5)
	g := operand(rng, tall.Rows, 8, 1)
	into, list := New(rows, width), []int32{7, 2, 11}
	if rows*inner*width >= parallelThreshold || tall.Rows*tall.Cols*g.Cols >= parallelThreshold {
		t.Fatal("a shape is past the parallel crossover")
	}
	result := testing.AllocsPerRun(20, func() { benchSink = New(rows, width) })
	for _, c := range []struct {
		name string
		want float64
		run  func()
	}{
		{"MatMulRowsInto", 0, func() { m.MatMulRowsInto(n, into, list) }},
		{"MatMul", result, func() { benchSink = m.MatMul(n) }},
		{"TMatMul", result, func() { benchSink = tall.TMatMul(g) }},
		{"MatMulT", 2 * result, func() { benchSink = m.MatMulT(w) }}, // and the transposed weight
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(20, c.run); got != c.want {
				t.Errorf("%v allocations per call, want %v", got, c.want)
			}
		})
	}
}

var benchSink *Matrix

// BenchmarkProducts times the products a layer runs — AH·W, AHᵀ·G and G·Wᵀ
// — at the shapes of every layer the benchmark workloads run (worker 0's
// owned rows: train-dense 10832, train-wire and serve-online 4000,
// train-fold 1800). The left operand AH has the
// density named: ÂX on cora-shape is about a sixth nonzero, a ReLU output
// about half, a high-degree aggregate full. At layer 1's shape, where the
// left operand is epoch-invariant, its retained forms run too (CSR for AH·W,
// the CSR of the transpose for AHᵀ·G) and G·Wᵀ does not: layer 1 propagates
// no gradient, so no workload runs it there. GFLOP/s is nominal,
// 2·rows·in·width per call at any density; nzGFLOP/s counts only the
// multiply-adds of nonzero left entries, so a skipped zero is not work done.
func BenchmarkProducts(b *testing.B) {
	shapes := []struct {
		rows, in, width int
		density         float64
		layer1          bool
	}{
		{10832, 256, 64, 0.16, true},
		{10832, 256, 64, 0.5, true},
		{10832, 256, 64, 1, true},
		{10832, 64, 64, 0.5, false},
		{10832, 64, 7, 0.5, false},
		{4000, 100, 16, 1, false},
		{4000, 16, 16, 0.5, false},
		{4000, 100, 64, 1, false},
		{4000, 64, 16, 0.5, false},
		{1800, 128, 16, 1, false},
		{1800, 16, 8, 0.5, false},
	}
	for _, s := range shapes {
		rng := rand.New(rand.NewSource(1))
		ah := operand(rng, s.rows, s.in, s.density)
		w := operand(rng, s.in, s.width, 1)
		g := operand(rng, s.rows, s.width, 1)
		type product struct {
			name string
			nz   float64 // floating-point operations on nonzero left entries
			run  func() *Matrix
		}
		nominal := 2 * float64(s.rows) * float64(s.in) * float64(s.width)
		nz := 2 * float64(ah.Nonzeros()) * float64(s.width)
		products := []product{
			{"MatMul", nz, func() *Matrix { return ah.MatMul(w) }},
			{"TMatMul", nz, func() *Matrix { return ah.TMatMul(g) }},
		}
		if s.layer1 {
			if s.density < 1 {
				csr, csrT := NewSparse(ah), NewSparseT(ah)
				products = append(products,
					product{"CSR", nz, func() *Matrix { return csr.MatMul(w) }},
					product{"CSRT", nz, func() *Matrix { return csrT.MatMul(g) }})
			}
		} else {
			products = append(products, product{"MatMulT", nominal, func() *Matrix { return g.MatMulT(w) }})
		}
		for _, p := range products {
			name := fmt.Sprintf("%s/%dx%dx%d/density=%g", p.name, s.rows, s.in, s.width, s.density)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSink = p.run()
				}
				perSec := float64(b.N) / b.Elapsed().Seconds() / 1e9
				b.ReportMetric(nominal*perSec, "GFLOP/s")
				b.ReportMetric(p.nz*perSec, "nzGFLOP/s")
			})
		}
	}
}
