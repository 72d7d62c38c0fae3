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
// non-training vertices — under Overlap × PackedSpMM all four ways. The
// constants were recorded at the parent commit (c951b6c), where every pair
// still shipped all of Needs at every layer; never re-record them to make
// this pass. The 2-layer arm thins its only backward exchange under ResEC-BP
// at B = 2, the 3-layer raw arm thins G³ and leaves G² alone.
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
		}, "cf2e1d60ce73f16a"},
		{"raw-3layer", []int{16, 16}, worker.Options{}, "f790239ef969e9b1"},
	}
	for _, tc := range cases {
		for _, overlap := range []bool{false, true} {
			for _, packed := range []bool{false, true} {
				cfg := coraConfig(epochs)
				cfg.Workers = 4
				cfg.Servers = 1
				cfg.Hidden = tc.hidden
				cfg.Worker = tc.opts
				cfg.Worker.Overlap = overlap
				cfg.Worker.PackedSpMM = packed
				res, err := Train(cfg)
				if err != nil {
					t.Fatalf("%s overlap=%v packed=%v: %v", tc.name, overlap, packed, err)
				}
				h := fnv.New64a()
				var b [8]byte
				for _, e := range res.Epochs {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(e.Loss))
					h.Write(b[:])
				}
				if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
					t.Errorf("%s overlap=%v packed=%v: loss trajectory %s, parent's %s",
						tc.name, overlap, packed, got, tc.want)
				}
			}
		}
	}
}
