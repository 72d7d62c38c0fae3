package datasets

import (
	"math"
	"testing"
)

func TestPresetNamesAllLoad(t *testing.T) {
	for _, name := range PresetNames() {
		if name == "ogbn-papers" && testing.Short() {
			continue
		}
		d, err := Load(name)
		if err != nil {
			t.Fatalf("Load(%q): %v", name, err)
		}
		if d.Graph.N == 0 || d.Features.Rows != d.Graph.N || len(d.Labels) != d.Graph.N {
			t.Fatalf("%s: inconsistent sizes", name)
		}
	}
}

func TestLoadUnknownPreset(t *testing.T) {
	if _, err := Load("nope"); err == nil {
		t.Fatalf("expected error for unknown preset")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustLoad("cora")
	b := MustLoad("cora")
	if a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.Graph.NumEdges(), b.Graph.NumEdges())
	}
	if !a.Features.Equal(b.Features, 0) {
		t.Fatalf("features differ across loads")
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("labels differ at %d", i)
		}
	}
}

func TestSplitsPartitionVertices(t *testing.T) {
	d := MustLoad("pubmed")
	for v := 0; v < d.Graph.N; v++ {
		cnt := 0
		if d.TrainMask[v] {
			cnt++
		}
		if d.ValMask[v] {
			cnt++
		}
		if d.TestMask[v] {
			cnt++
		}
		if cnt != 1 {
			t.Fatalf("vertex %d in %d splits", v, cnt)
		}
	}
	if len(d.TrainIdx())+len(d.ValIdx())+len(d.TestIdx()) != d.Graph.N {
		t.Fatalf("split sizes do not sum to N")
	}
}

func TestAvgDegreeNearTarget(t *testing.T) {
	cases := map[string]float64{"cora": 3.9, "reddit": 120}
	for name, want := range cases {
		d := MustLoad(name)
		got := d.Graph.AvgDegree()
		// Duplicate-edge removal erodes a few percent on dense graphs;
		// allow 20 % slack.
		if math.Abs(got-want)/want > 0.20 {
			t.Errorf("%s: avg degree %v, want ≈%v", name, got, want)
		}
	}
}

func TestFeaturesInUnitInterval(t *testing.T) {
	d := MustLoad("cora")
	lo, hi := d.Features.MinMax()
	if lo < 0 || hi > 1 {
		t.Fatalf("features out of [0,1]: [%v, %v]", lo, hi)
	}
	if hi-lo < 0.5 {
		t.Fatalf("features barely spread: [%v, %v]", lo, hi)
	}
}

func TestLabelsInRange(t *testing.T) {
	d := MustLoad("reddit")
	for v, c := range d.Labels {
		if c < 0 || c >= d.NumClasses {
			t.Fatalf("label %d out of range at vertex %d", c, v)
		}
	}
}

func TestHomophilyIsHigh(t *testing.T) {
	d := MustLoad("cora")
	g := d.Graph
	same, total := 0, 0
	for v := 0; v < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			total++
			if d.Labels[v] == d.Labels[int(u)] {
				same++
			}
		}
	}
	frac := float64(same) / float64(total)
	if frac < 0.6 {
		t.Fatalf("homophily too low for GCN to learn: %v", frac)
	}
}

func TestGenerateInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on invalid config")
		}
	}()
	Generate(Config{N: 0})
}
