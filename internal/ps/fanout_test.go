package ps

import (
	"errors"
	"strings"
	"testing"

	"ecgraph/internal/transport"
)

// recordingNet answers parameter-server calls without servers and records
// how they were issued: every CallMulti batch, and every bare Call. A call
// to a node in fail returns an error; every other call gets a well-formed
// reply for its range.
type recordingNet struct {
	transport.Network
	ranges  map[int]Range // dst → the range it serves
	fail    map[int]bool
	batches [][]transport.Call
	bare    int
}

func (n *recordingNet) Call(src, dst int, method string, req []byte) ([]byte, error) {
	n.bare++
	return nil, errors.New("bare Call")
}

func (n *recordingNet) CallMulti(src int, calls []transport.Call) []transport.Result {
	n.batches = append(n.batches, append([]transport.Call(nil), calls...))
	out := make([]transport.Result, len(calls))
	for i, c := range calls {
		if n.fail[c.Dst] {
			out[i].Err = errors.New("node down")
			continue
		}
		w := transport.NewWriter(64)
		switch c.Method {
		case MethodPull:
			w.Float32s(make([]float32, n.ranges[c.Dst].Len()))
		case MethodVersion:
			w.Uint32(3)
		}
		out[i].Resp = w.Bytes()
	}
	return out
}

// TestClientPhaseIsOneFanOut pins that each client phase — Pull, Push and
// ServerVersions — is a single CallMulti batch holding one call per range,
// in range order, to the range's primary as the route table stands, and
// that a failed range is reported while the other ranges' calls still go
// out.
func TestClientPhaseIsOneFanOut(t *testing.T) {
	ranges := Ranges(10, 2)
	routes := NewRoutes([]int{5, 6})
	routes.SetPrimary(1, 9) // a promoted backup now serves range 1
	net := &recordingNet{ranges: map[int]Range{5: ranges[0], 9: ranges[1]}}
	c := NewClientRoutes(net, 2, routes, ranges)

	phases := []struct {
		method string
		run    func() error
	}{
		{MethodPull, func() error { _, err := c.Pull(4); return err }},
		{MethodPush, func() error { return c.Push(4, make([]float32, 10)) }},
		{MethodVersion, func() error { _, err := c.ServerVersions(); return err }},
	}
	for _, ph := range phases {
		for _, down := range []int{0, 5} {
			net.batches, net.bare = nil, 0
			net.fail = map[int]bool{down: true}
			err := ph.run()
			if down == 5 && (err == nil || !strings.Contains(err.Error(), "node down")) {
				t.Fatalf("%s with range 0's primary down: err = %v, want it reported", ph.method, err)
			}
			if down == 0 && err != nil {
				t.Fatalf("%s: %v", ph.method, err)
			}
			if net.bare != 0 || len(net.batches) != 1 {
				t.Fatalf("%s: %d bare calls and %d batches, want one batch only", ph.method, net.bare, len(net.batches))
			}
			b := net.batches[0]
			if len(b) != 2 || b[0].Dst != 5 || b[1].Dst != 9 {
				t.Fatalf("%s: batch %+v, want one call to 5 then one to 9", ph.method, b)
			}
			for _, call := range b {
				if call.Method != ph.method {
					t.Fatalf("%s: batch carries a %s call", ph.method, call.Method)
				}
			}
		}
	}
}
