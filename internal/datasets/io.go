package datasets

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ecgraph/internal/graph"
	"ecgraph/internal/tensor"
)

// LoadFiles reads a dataset from two text files, the interchange format
// real deployments use to feed EC-Graph their own graphs:
//
//   - edgePath: one "u v" pair per line (0-based vertex ids, undirected;
//     duplicates and self-loops are dropped). Lines starting with '#' or
//     '%' are comments.
//   - vertexPath: one line per vertex: "label f0 f1 ... f_{d-1}". Every
//     line must list the same number of features. The vertex count is the
//     number of lines; edges must stay within it.
//
// Splits are assigned round-robin by the given fractions with the vertex
// order as the stream (deterministic; shuffle the file for a random split).
func LoadFiles(name, edgePath, vertexPath string, trainFrac, valFrac float64) (*Dataset, error) {
	vf, err := os.Open(vertexPath)
	if err != nil {
		return nil, fmt.Errorf("datasets: %w", err)
	}
	defer vf.Close()
	labels, feats, err := parseVertices(vf)
	if err != nil {
		return nil, fmt.Errorf("datasets: %s: %w", vertexPath, err)
	}
	n := len(labels)

	ef, err := os.Open(edgePath)
	if err != nil {
		return nil, fmt.Errorf("datasets: %w", err)
	}
	defer ef.Close()
	edges, err := parseEdges(ef, n)
	if err != nil {
		return nil, fmt.Errorf("datasets: %s: %w", edgePath, err)
	}

	numClasses := 0
	for _, c := range labels {
		if c >= numClasses {
			numClasses = c + 1
		}
	}
	d := &Dataset{
		Name:       name,
		Graph:      graph.FromEdges(n, edges),
		Features:   feats,
		Labels:     labels,
		NumClasses: numClasses,
		TrainMask:  make([]bool, n),
		ValMask:    make([]bool, n),
		TestMask:   make([]bool, n),
	}
	nTrain := int(float64(n) * trainFrac)
	nVal := int(float64(n) * valFrac)
	for v := 0; v < n; v++ {
		switch {
		case v < nTrain:
			d.TrainMask[v] = true
		case v < nTrain+nVal:
			d.ValMask[v] = true
		default:
			d.TestMask[v] = true
		}
	}
	return d, nil
}

func parseVertices(r io.Reader) ([]int, *tensor.Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var labels []int
	var rows [][]float32
	dim := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 1 {
			continue
		}
		label, err := strconv.Atoi(fields[0])
		if err != nil || label < 0 {
			return nil, nil, fmt.Errorf("line %d: bad label %q", lineNo, fields[0])
		}
		feat := make([]float32, len(fields)-1)
		for i, f := range fields[1:] {
			v, err := strconv.ParseFloat(f, 32)
			if err != nil {
				return nil, nil, fmt.Errorf("line %d: bad feature %q", lineNo, f)
			}
			feat[i] = float32(v)
		}
		if dim == -1 {
			dim = len(feat)
		} else if len(feat) != dim {
			return nil, nil, fmt.Errorf("line %d: %d features, expected %d", lineNo, len(feat), dim)
		}
		labels = append(labels, label)
		rows = append(rows, feat)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(labels) == 0 {
		return nil, nil, fmt.Errorf("no vertices")
	}
	if dim == 0 {
		return nil, nil, fmt.Errorf("vertices have no features")
	}
	feats := tensor.New(len(rows), dim)
	for i, row := range rows {
		copy(feats.Row(i), row)
	}
	return labels, feats, nil
}

func parseEdges(r io.Reader, n int) ([][2]int32, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var edges [][2]int32
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("line %d: need two vertex ids", lineNo)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad vertex %q", lineNo, fields[0])
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad vertex %q", lineNo, fields[1])
		}
		if u < 0 || v < 0 || u >= n || v >= n {
			return nil, fmt.Errorf("line %d: edge (%d,%d) outside vertex range [0,%d)", lineNo, u, v, n)
		}
		edges = append(edges, [2]int32{int32(u), int32(v)})
	}
	return edges, sc.Err()
}
