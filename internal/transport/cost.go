package transport

// CostModel converts traffic counters into simulated network time. The
// evaluation clusters in the paper are connected by Gigabit Ethernet; epoch
// times in our reproduction are computed as measured local compute plus
// this model applied to the exact bytes the codec put on the (virtual)
// wire.
type CostModel struct {
	// LatencySec is the per-round-trip latency in seconds.
	LatencySec float64
	// BandwidthBytesPerSec is the per-node link bandwidth.
	BandwidthBytesPerSec float64
}

// GigabitEthernet models the paper's cluster fabric and RPC stack: 1 Gb/s
// ≈ 117 MiB/s of goodput, and 500 µs per request/response round trip — a
// LAN RTT plus the per-call overhead of the gRPC + protobuf + pybind11
// pipeline the paper's implementation runs every message through. The
// per-call term is what makes distributed training slower than standalone
// DGL on the small graphs (Table IV's Cora/Pubmed rows), exactly as §V-D
// reports.
func GigabitEthernet() CostModel {
	return CostModel{LatencySec: 500e-6, BandwidthBytesPerSec: 117 * 1024 * 1024}
}

// Time returns the simulated seconds needed to move the given traffic:
// serialisation delay for the bytes plus one latency per message round
// trip. A node's in and out traffic share its link, so callers pass the
// node's combined byte count.
func (c CostModel) Time(bytes, messages int64) float64 {
	if bytes < 0 {
		bytes = 0
	}
	if messages < 0 {
		messages = 0
	}
	return float64(bytes)/c.BandwidthBytesPerSec + float64(messages)*c.LatencySec
}

// TimeFor is Time applied to a node Stats snapshot.
func (c CostModel) TimeFor(s Stats) float64 {
	return c.Time(s.Total(), s.Messages)
}
