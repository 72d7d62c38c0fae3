package transport

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"ecgraph/internal/compress"
	"ecgraph/internal/tensor"
)

func TestCodecScalars(t *testing.T) {
	w := NewWriter(0)
	w.Byte(7)
	w.Uint32(1 << 30)
	w.Uint64(1 << 50)
	w.Int32(-5)
	w.Float32(3.25)
	r := NewReader(w.Bytes())
	if r.Byte() != 7 || r.Uint32() != 1<<30 || r.Uint64() != 1<<50 || r.Int32() != -5 || r.Float32() != 3.25 {
		t.Fatalf("scalar round trip failed")
	}
	if r.Remaining() != 0 {
		t.Fatalf("leftover bytes: %d", r.Remaining())
	}
}

func TestCodecSlices(t *testing.T) {
	w := NewWriter(0)
	w.Float32s([]float32{1, -2, 3.5})
	w.Int32s([]int32{-1, 0, 7})
	w.Uint8s([]byte{9, 8})
	r := NewReader(w.Bytes())
	f := r.Float32s()
	if len(f) != 3 || f[1] != -2 {
		t.Fatalf("Float32s round trip: %v", f)
	}
	i := r.Int32s()
	if len(i) != 3 || i[2] != 7 {
		t.Fatalf("Int32s round trip: %v", i)
	}
	b := r.Uint8s()
	if len(b) != 2 || b[0] != 9 {
		t.Fatalf("Uint8s round trip: %v", b)
	}
}

func TestCodecEmptySlices(t *testing.T) {
	w := NewWriter(0)
	w.Float32s(nil)
	w.Int32s(nil)
	w.Uint8s(nil)
	r := NewReader(w.Bytes())
	if len(r.Float32s()) != 0 || len(r.Int32s()) != 0 || len(r.Uint8s()) != 0 {
		t.Fatalf("empty slice round trip failed")
	}
}

func TestCodecMatrix(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := tensor.New(1+rng.Intn(10), 1+rng.Intn(10))
		for i := range m.Data {
			m.Data[i] = float32(rng.NormFloat64())
		}
		w := NewWriter(0)
		w.Matrix(m)
		got := NewReader(w.Bytes()).Matrix()
		return got.Equal(m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCodecQuantized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := tensor.New(13, 7)
	for i := range m.Data {
		m.Data[i] = rng.Float32()
	}
	q := compress.Compress(m, 4)
	w := NewWriter(0)
	w.Quantized(q)
	got := NewReader(w.Bytes()).Quantized()
	if got.Rows != q.Rows || got.Cols != q.Cols || got.Bits != q.Bits || got.Lo != q.Lo || got.Hi != q.Hi {
		t.Fatalf("quantized header mismatch")
	}
	if !got.Decompress().Equal(q.Decompress(), 0) {
		t.Fatalf("quantized payload mismatch")
	}
}

func TestCodecQuantizedWireSizeTracksWireBytes(t *testing.T) {
	m := tensor.New(100, 64)
	q := compress.Compress(m, 2)
	w := NewWriter(0)
	w.Quantized(q)
	// The encoded form replaces the 2^B bucket table with the (lo,hi) pair,
	// so it should be no larger than the accounting figure.
	if w.Len() > q.WireBytes() {
		t.Fatalf("encoded %d bytes exceeds accounted %d", w.Len(), q.WireBytes())
	}
}

func TestReaderShortReadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on short read")
		}
	}()
	NewReader([]byte{1, 2}).Uint32()
}

// TestReaderChecksCountsBeforeAllocating feeds every variable-length
// decoder a header that promises gigabytes over a few bytes of data (and one
// whose rows*cols overflows): each must fail on its length check, before it
// allocates from the count.
func TestReaderChecksCountsBeforeAllocating(t *testing.T) {
	huge := func(counts ...uint32) []byte {
		w := NewWriter(64)
		for _, c := range counts {
			w.Uint32(c)
		}
		w.Uint64(0) // a little data, never enough
		return w.Bytes()
	}
	quantHeader := func(rows, cols uint32, bits byte, words uint32) []byte {
		w := NewWriter(64)
		w.Uint32(rows)
		w.Uint32(cols)
		w.Byte(bits)
		w.Byte(0)
		w.Float32(0)
		w.Float32(1)
		w.Uint32(words)
		w.Uint64(0)
		return w.Bytes()
	}
	const big = 1 << 30
	cases := map[string]func(){
		"Float32s":         func() { NewReader(huge(big)).Float32s() },
		"Float64s":         func() { NewReader(huge(big)).Float64s() },
		"Int32s":           func() { NewReader(huge(big)).Int32s() },
		"Uint8s":           func() { NewReader(huge(big)).Uint8s() },
		"Matrix":           func() { NewReader(huge(big, 4)).Matrix() },
		"Matrix overflow":  func() { NewReader(huge(math.MaxUint32, math.MaxUint32)).Matrix() },
		"Sparse count":     func() { NewReader(huge(4, 4, big)).Sparse() },
		"Sparse shape":     func() { NewReader(huge(big, 4, 1)).Sparse().Dense() },
		"Quantized words":  func() { NewReader(quantHeader(4, 4, 2, big)).Quantized() },
		"Quantized shape":  func() { NewReader(quantHeader(big, 4, 2, 1)).Quantized().Decompress() },
		"Quantized bits":   func() { NewReader(quantHeader(4, 4, 3, 1)).Quantized() },
		"Quantized 0-wide": func() { NewReader(quantHeader(big, 0, 2, 0)).Quantized().Block() },
	}
	for name, decode := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			decode()
			return false
		}()
		runtime.ReadMemStats(&after)
		if !panicked {
			t.Errorf("%s: corrupted count decoded", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: allocated %d bytes from a %d-byte frame", name, grew, 20)
		}
	}
}

func echoHandler(method string, req []byte) ([]byte, error) {
	if method == "fail" {
		return nil, errors.New("boom")
	}
	return append([]byte(method+"/"), req...), nil
}

func testNetworkBasics(t *testing.T, nw Network) {
	t.Helper()
	nw.Register(0, echoHandler)
	nw.Register(1, echoHandler)

	resp, err := nw.Call(0, 1, "hi", []byte("abc"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(resp) != "hi/abc" {
		t.Fatalf("resp = %q", resp)
	}

	if _, err := nw.Call(0, 1, "fail", nil); err == nil {
		t.Fatalf("expected handler error")
	}
	if _, err := nw.Call(0, 99, "hi", nil); err == nil {
		t.Fatalf("expected error for unknown node")
	}

	s0 := nw.NodeStats(0)
	s1 := nw.NodeStats(1)
	if s0.Messages == 0 || s0.BytesOut == 0 || s0.BytesIn == 0 {
		t.Fatalf("caller stats not recorded: %+v", s0)
	}
	if s1.BytesIn != s0.BytesOut || s1.BytesOut != s0.BytesIn {
		t.Fatalf("stats not symmetric: %+v vs %+v", s0, s1)
	}

	// Local calls are free (shared memory).
	before := nw.NodeStats(0)
	if _, err := nw.Call(0, 0, "hi", []byte("x")); err != nil {
		t.Fatalf("local call: %v", err)
	}
	if after := nw.NodeStats(0); after != before {
		t.Fatalf("local call charged traffic: %+v vs %+v", after, before)
	}

	nw.ResetStats()
	if s := nw.NodeStats(0); s.Total() != 0 || s.Messages != 0 {
		t.Fatalf("ResetStats left counters: %+v", s)
	}
}

func TestInProcNetwork(t *testing.T) {
	nw := NewInProc(3)
	defer nw.Close()
	testNetworkBasics(t, nw)
	if _, err := nw.Call(0, 2, "hi", nil); err == nil {
		t.Fatalf("expected error for unregistered node")
	}
}

func TestTCPNetwork(t *testing.T) {
	nw, err := NewTCPCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	testNetworkBasics(t, nw)
	if _, err := nw.Call(0, 2, "hi", nil); err == nil {
		t.Fatalf("expected error for unregistered node")
	}
	if nw.Addr(0) == "" || nw.Addr(0) == nw.Addr(1) {
		t.Fatalf("bad listener addresses: %q %q", nw.Addr(0), nw.Addr(1))
	}
}

func TestTCPLargePayload(t *testing.T) {
	nw, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	nw.Register(1, func(method string, req []byte) ([]byte, error) {
		return req, nil // echo
	})
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	resp, err := nw.Call(0, 1, "echo", payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != len(payload) {
		t.Fatalf("echo length %d != %d", len(resp), len(payload))
	}
	for i := range resp {
		if resp[i] != payload[i] {
			t.Fatalf("echo corrupted at %d", i)
		}
	}
}

func TestTCPConcurrentCallers(t *testing.T) {
	nw, err := NewTCPCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	for i := 0; i < 4; i++ {
		node := i
		nw.Register(node, func(method string, req []byte) ([]byte, error) {
			return append([]byte(fmt.Sprintf("%d:", node)), req...), nil
		})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			src, dst := c%4, (c+1)%4
			for k := 0; k < 20; k++ {
				want := fmt.Sprintf("%d:msg%d-%d", dst, c, k)
				resp, err := nw.Call(src, dst, "m", []byte(fmt.Sprintf("msg%d-%d", c, k)))
				if err != nil {
					errs <- err
					return
				}
				if string(resp) != want {
					errs <- fmt.Errorf("got %q want %q", resp, want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPCallAfterClose(t *testing.T) {
	nw, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	nw.Register(1, echoHandler)
	nw.Close()
	if _, err := nw.Call(0, 1, "hi", nil); err == nil {
		t.Fatalf("expected error after Close")
	}
	// Double close is safe.
	if err := nw.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestInProcByteCountsMatchPayload(t *testing.T) {
	nw := NewInProc(2)
	nw.Register(1, func(method string, req []byte) ([]byte, error) {
		return make([]byte, 100), nil
	})
	if _, err := nw.Call(0, 1, "get", make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	s := nw.NodeStats(0)
	frame := int64(frameOverhead + len("get"))
	if s.BytesOut != 40+frame {
		t.Fatalf("BytesOut = %d, want %d", s.BytesOut, 40+frame)
	}
	if s.BytesIn != 100+frame {
		t.Fatalf("BytesIn = %d, want %d", s.BytesIn, 100+frame)
	}
}

func TestCostModel(t *testing.T) {
	cm := CostModel{LatencySec: 1e-3, BandwidthBytesPerSec: 1e6}
	got := cm.Time(2e6, 10)
	want := 2.0 + 10*1e-3
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Time = %v, want %v", got, want)
	}
	if cm.Time(-5, -5) != 0 {
		t.Fatalf("negative traffic should cost nothing")
	}
	if cm.TimeFor(Stats{BytesOut: 1e6, BytesIn: 1e6, Messages: 10}) != want {
		t.Fatalf("TimeFor mismatch")
	}
	if d := cm.Duration(1e6, 0); d.Seconds() != 1 {
		t.Fatalf("Duration = %v", d)
	}
	ge := GigabitEthernet()
	if ge.BandwidthBytesPerSec < 100e6 || ge.BandwidthBytesPerSec > 130e6 {
		t.Fatalf("unexpected 1GbE bandwidth %v", ge.BandwidthBytesPerSec)
	}
}

func BenchmarkInProcCall(b *testing.B) {
	nw := NewInProc(2)
	nw.Register(1, echoHandler)
	req := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.Call(0, 1, "m", req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPCall(b *testing.B) {
	nw, err := NewTCPCluster(2)
	if err != nil {
		b.Fatal(err)
	}
	defer nw.Close()
	nw.Register(1, echoHandler)
	req := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.Call(0, 1, "m", req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecMatrixEncode(b *testing.B) {
	m := tensor.New(512, 128)
	b.SetBytes(int64(len(m.Data) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := NewWriter(len(m.Data)*4 + 16)
		w.Matrix(m)
	}
}

func TestCodecSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := tensor.New(8, 8)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	s := compress.TopK(m, 5)
	w := NewWriter(0)
	w.Sparse(s)
	got := NewReader(w.Bytes()).Sparse()
	if got.Rows != s.Rows || got.Cols != s.Cols || len(got.Idx) != len(s.Idx) {
		t.Fatalf("sparse header mismatch")
	}
	if !got.Dense().Equal(s.Dense(), 0) {
		t.Fatalf("sparse payload mismatch")
	}
	// Encoded size tracks WireBytes.
	if w.Len() != s.WireBytes() {
		t.Fatalf("encoded %d bytes, WireBytes %d", w.Len(), s.WireBytes())
	}
}
