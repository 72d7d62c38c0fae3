package nn

import (
	"bytes"
	"path/filepath"
	"testing"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	for _, kind := range []Kind{KindGCN, KindSAGE} {
		orig := NewModel(kind, []int{7, 11, 3}, 42)
		var buf bytes.Buffer
		if err := orig.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != orig.Kind || len(got.Dims) != len(orig.Dims) {
			t.Fatalf("%v: header mismatch", kind)
		}
		a, b := orig.FlattenParams(), got.FlattenParams()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: param %d differs", kind, i)
			}
		}
	}
}

func TestModelSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ecg")
	orig := NewModel(KindGCN, []int{4, 5, 2}, 3)
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ParamCount() != orig.ParamCount() {
		t.Fatalf("param count mismatch")
	}
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": {'X', 'X', 'X', 'X', 0, 2, 0, 0, 0},
		"bad kind":  {'E', 'C', 'G', 1, 9},
		"truncated": {'E', 'C', 'G', 1, 0, 2, 0, 0, 0},
		"zero dims": {'E', 'C', 'G', 1, 0, 0, 0, 0, 0},
	}
	for name, data := range cases {
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestLoadRejectsWrongParamCount(t *testing.T) {
	orig := NewModel(KindGCN, []int{3, 2}, 1)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the parameter-count field (after magic+kind+ndims+2 dims).
	off := 4 + 1 + 4 + 8
	data[off] = 0xFF
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatalf("expected error for wrong parameter count")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.ecg")); err == nil {
		t.Fatalf("expected error for missing file")
	}
}

func TestSavedModelPredictsIdentically(t *testing.T) {
	adj := smallGraph()
	x := randomFeatures(newRand(9), 6, 4)
	orig := NewModel(KindGCN, []int{4, 5, 3}, 9)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	predict := func(m *Model) []int {
		acts := m.Forward(adj, x)
		return acts.H[len(acts.H)-1].ArgMaxRows()
	}
	a, b := predict(orig), predict(loaded)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction %d differs after reload", i)
		}
	}
}

// TestSaveRefusesGAT: the format records no head count, so a GAT model is
// refused rather than written as a file Load would misread.
func TestSaveRefusesGAT(t *testing.T) {
	var buf bytes.Buffer
	if err := NewGAT([]int{4, 6, 3}, 2, 1).Save(&buf); err == nil {
		t.Fatal("Save(GAT) succeeded")
	}
}
