package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"ecgraph/internal/worker"
)

// TestTopLayerGetGGolden pins the trajectories the mask-derived top-layer
// getG must not move (DESIGN.md §10): FNV-1a over the per-epoch loss bits of
// a 4-worker cora run — 48 % of whose top-layer gradient rows belong to
// non-training vertices. The constants were recorded at c951b6c, where every
// pair still shipped all of Needs at every layer. The 2-layer arm thins its
// only backward exchange under ResEC-BP at B = 2, the 3-layer raw arm thins
// G³ and leaves G² alone. raw-3layer was re-recorded once, in the commit
// after 0ef9f3a, because its 16 → 7 top layer began to ship and fold H·W
// (DESIGN.md §10, "Narrow side on the exact wire"); ec2-2layer was
// re-recorded once, in the commit after 6fba791, because its 16 → 7 top
// layer began to ship P under EC both ways, with its getG at 4 bits ("…
// on the compensated wire"). Never re-record them to make this pass.
func TestTopLayerGetGGolden(t *testing.T) {
	const epochs = 8
	cases := []struct {
		name   string
		hidden []int
		opts   worker.Options
		want   string
	}{
		{"ec2-2layer", []int{16}, worker.Options{
			FPScheme: worker.SchemeEC, BPScheme: worker.SchemeEC, FPBits: 2, BPBits: 2, Ttr: 5,
		}, "9d532bbbc879c18b"},
		{"raw-3layer", []int{16, 16}, worker.Options{}, "f963539d34407c8b"},
	}
	for _, tc := range cases {
		cfg := coraConfig(epochs)
		cfg.Workers = 4
		cfg.Servers = 1
		cfg.Hidden = tc.hidden
		cfg.Worker = tc.opts
		res, err := Train(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := fnv.New64a()
		var b [8]byte
		for _, e := range res.Epochs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(e.Loss))
			h.Write(b[:])
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
			t.Errorf("%s: loss trajectory %s, recorded %s", tc.name, got, tc.want)
		}
	}
}
