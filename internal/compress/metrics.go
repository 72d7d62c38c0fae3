package compress

import (
	"strconv"
	"sync"
	"sync/atomic"

	"ecgraph/internal/obs"
)

// Package-level codec counters, indexed by the ValidBits menu. They count
// the quantised matrices that go on the wire — CountWire, which the
// transport codec's Writer.Quantized calls — not every quantisation: a
// responder's scratch quantisation that never ships is not traffic. They
// are always on (four atomic adds per shipped matrix is noise next to
// packing it) and exported to a registry only when RegisterMetrics is
// called, via a scrape hook that copies the totals into gauges.
var codecStats struct {
	calls     [8]atomic.Int64 // matrices shipped at ValidBits[i]
	rows      [8]atomic.Int64 // matrix rows shipped at ValidBits[i]
	wireBytes [8]atomic.Int64 // wire bytes of those matrices
	rawBytes  [8]atomic.Int64 // float32 bytes those matrices would have cost
}

func bitsIndex(bits int) int {
	for i, b := range ValidBits {
		if b == bits {
			return i
		}
	}
	return -1
}

// CountWire adds q to the codec counters: one matrix of q.Rows rows put on
// the wire at q.Bits.
func CountWire(q *Quantized) {
	i := bitsIndex(q.Bits)
	if i < 0 {
		return
	}
	codecStats.calls[i].Add(1)
	codecStats.rows[i].Add(int64(q.Rows))
	codecStats.wireBytes[i].Add(int64(q.WireBytes()))
	codecStats.rawBytes[i].Add(int64(RawWireBytes(q.Rows, q.Cols)))
}

var registerOnce sync.Map // *obs.Registry → struct{}

// RegisterMetrics exports the codec totals on reg:
//
//	ecgraph_compress_calls{bits}       quantised matrices put on the wire
//	ecgraph_compress_rows{bits}        rows of those matrices
//	ecgraph_compress_wire_bytes{bits}  their bytes after B-bit packing
//	ecgraph_compress_raw_bytes{bits}   bytes the same data costs uncompressed
//
// All four are monotonic since process start (exposed as gauges because
// they are copied from the package counters at scrape time). Registering
// the same registry twice is a no-op.
func RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	if _, loaded := registerOnce.LoadOrStore(reg, struct{}{}); loaded {
		return
	}
	calls := reg.GaugeVec("ecgraph_compress_calls",
		"Quantised matrices put on the wire per bit width (monotonic).", "bits")
	rows := reg.GaugeVec("ecgraph_compress_rows",
		"Rows of the quantised matrices put on the wire per bit width (monotonic).", "bits")
	wire := reg.GaugeVec("ecgraph_compress_wire_bytes",
		"Wire bytes produced per bit width (monotonic).", "bits")
	raw := reg.GaugeVec("ecgraph_compress_raw_bytes",
		"Uncompressed float32 bytes of the same matrices (monotonic).", "bits")
	type handles struct{ calls, rows, wire, raw *obs.Gauge }
	hs := make([]handles, len(ValidBits))
	for i, b := range ValidBits {
		s := strconv.Itoa(b)
		hs[i] = handles{calls.With(s), rows.With(s), wire.With(s), raw.With(s)}
	}
	reg.OnScrapeNamed("compress", func() {
		for i := range hs {
			hs[i].calls.Set(float64(codecStats.calls[i].Load()))
			hs[i].rows.Set(float64(codecStats.rows[i].Load()))
			hs[i].wire.Set(float64(codecStats.wireBytes[i].Load()))
			hs[i].raw.Set(float64(codecStats.rawBytes[i].Load()))
		}
	})
}
