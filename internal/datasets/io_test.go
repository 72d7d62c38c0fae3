package datasets

import (
	"os"
	"path/filepath"
	"testing"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadFilesBasic(t *testing.T) {
	dir := t.TempDir()
	vertices := writeFile(t, dir, "v.txt", `# label features
0 1.0 0.0
1 0.0 1.0
0 0.5 0.5
1 0.25 0.75
`)
	edges := writeFile(t, dir, "e.txt", `% comment
0 1
1 2
2 3
`)
	d, err := LoadFiles("mini", edges, vertices, 0.5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if d.Graph.N != 4 || d.Graph.NumEdges() != 3 {
		t.Fatalf("graph %d vertices %d edges", d.Graph.N, d.Graph.NumEdges())
	}
	if d.NumClasses != 2 || d.NumFeatures() != 2 {
		t.Fatalf("classes %d features %d", d.NumClasses, d.NumFeatures())
	}
	if d.Features.At(2, 0) != 0.5 {
		t.Fatalf("feature parse wrong: %v", d.Features.At(2, 0))
	}
	if len(d.TrainIdx()) != 2 || len(d.ValIdx()) != 1 || len(d.TestIdx()) != 1 {
		t.Fatalf("split sizes %d/%d/%d", len(d.TrainIdx()), len(d.ValIdx()), len(d.TestIdx()))
	}
}

func TestLoadFilesErrors(t *testing.T) {
	dir := t.TempDir()
	goodV := writeFile(t, dir, "v.txt", "0 1.0\n1 2.0\n")
	cases := []struct {
		name            string
		edges, vertices string
	}{
		{"edge out of range", "0 9\n", "0 1.0\n1 2.0\n"},
		{"bad edge token", "0 x\n", "0 1.0\n1 2.0\n"},
		{"short edge line", "0\n", "0 1.0\n1 2.0\n"},
		{"bad label", "0 1\n", "x 1.0\n0 2.0\n"},
		{"negative label", "0 1\n", "-1 1.0\n0 2.0\n"},
		{"bad feature", "0 1\n", "0 oops\n0 2.0\n"},
		{"ragged features", "0 1\n", "0 1.0 2.0\n1 3.0\n"},
		{"no vertices", "0 1\n", "# empty\n"},
		{"no features", "0 1\n", "0\n1\n"},
	}
	for _, c := range cases {
		e := writeFile(t, dir, "e_case.txt", c.edges)
		v := writeFile(t, dir, "v_case.txt", c.vertices)
		if _, err := LoadFiles("x", e, v, 0.5, 0.2); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := LoadFiles("x", filepath.Join(dir, "missing"), goodV, 0.5, 0.2); err == nil {
		t.Errorf("missing edge file: expected error")
	}
	if _, err := LoadFiles("x", goodV, filepath.Join(dir, "missing"), 0.5, 0.2); err == nil {
		t.Errorf("missing vertex file: expected error")
	}
}
