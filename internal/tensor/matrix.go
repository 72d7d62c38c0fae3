// Package tensor provides the dense linear-algebra substrate for EC-Graph.
//
// The paper's computation backend is PyTorch; this package replaces it with
// a small, self-contained float32 matrix library sufficient for GCN /
// GraphSAGE forward and backward propagation: parallel blocked matrix
// multiplication, transposes, elementwise kernels, row-wise softmax and the
// reductions used by the optimiser and the compression error metrics.
//
// Matrices are dense and row-major. Storage is float32 to match the paper's
// 4-byte-per-element wire accounting (the 32/B compression factor); sums
// that are sensitive to cancellation (softmax, norms, Adam moments) use
// float64 accumulators internally.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols
}

// New allocates a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v []float32) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: SetRow length %d != cols %d", len(v), m.Cols))
	}
	copy(m.Row(i), v)
}

// Zero resets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether m and n have identical dimensions.
func (m *Matrix) SameShape(n *Matrix) bool { return m.Rows == n.Rows && m.Cols == n.Cols }

func (m *Matrix) assertSameShape(n *Matrix, op string) {
	if !m.SameShape(n) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, n.Rows, n.Cols))
	}
}

// Add returns m + n elementwise.
func (m *Matrix) Add(n *Matrix) *Matrix {
	m.assertSameShape(n, "Add")
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = v + n.Data[i]
	}
	return out
}

// AddInPlace sets m = m + n and returns m.
func (m *Matrix) AddInPlace(n *Matrix) *Matrix {
	m.assertSameShape(n, "AddInPlace")
	for i, v := range n.Data {
		m.Data[i] += v
	}
	return m
}

// AddRowsAt adds src row k into m row idx[k] for every k and returns m: the
// scatter inverse of a compact gather, used to fold a contribution computed
// over a row subset (e.g. a partition's boundary rows) back into the full
// matrix without touching the other rows.
func (m *Matrix) AddRowsAt(idx []int32, src *Matrix) *Matrix {
	if src.Rows != len(idx) || src.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowsAt src %dx%d with %d indices into %dx%d",
			src.Rows, src.Cols, len(idx), m.Rows, m.Cols))
	}
	for k, i := range idx {
		dst := m.Data[int(i)*m.Cols : (int(i)+1)*m.Cols]
		for j, v := range src.Data[k*m.Cols : (k+1)*m.Cols] {
			dst[j] += v
		}
	}
	return m
}

// SetRowsAt overwrites m row idx[k] with src row k for every k and returns
// m — AddRowsAt's copying sibling, for rows whose value is computed whole
// over the subset rather than accumulated into what m already holds.
func (m *Matrix) SetRowsAt(idx []int32, src *Matrix) *Matrix {
	if src.Rows != len(idx) || src.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: SetRowsAt src %dx%d with %d indices into %dx%d",
			src.Rows, src.Cols, len(idx), m.Rows, m.Cols))
	}
	for k, i := range idx {
		copy(m.Row(int(i)), src.Row(k))
	}
	return m
}

// Sub returns m - n elementwise.
func (m *Matrix) Sub(n *Matrix) *Matrix {
	m.assertSameShape(n, "Sub")
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = v - n.Data[i]
	}
	return out
}

// SubInPlace sets m = m - n and returns m.
func (m *Matrix) SubInPlace(n *Matrix) *Matrix {
	m.assertSameShape(n, "SubInPlace")
	for i, v := range n.Data {
		m.Data[i] -= v
	}
	return m
}

// Hadamard returns the elementwise product m ⊙ n.
func (m *Matrix) Hadamard(n *Matrix) *Matrix {
	m.assertSameShape(n, "Hadamard")
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = v * n.Data[i]
	}
	return out
}

// HadamardInPlace sets m = m ⊙ n and returns m.
func (m *Matrix) HadamardInPlace(n *Matrix) *Matrix {
	m.assertSameShape(n, "HadamardInPlace")
	for i, v := range n.Data {
		m.Data[i] *= v
	}
	return m
}

// Scale returns s·m.
func (m *Matrix) Scale(s float32) *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = s * v
	}
	return out
}

// ScaleInPlace sets m = s·m and returns m.
func (m *Matrix) ScaleInPlace(s float32) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddScaledInPlace sets m = m + s·n and returns m (axpy).
func (m *Matrix) AddScaledInPlace(n *Matrix, s float32) *Matrix {
	m.assertSameShape(n, "AddScaledInPlace")
	for i, v := range n.Data {
		m.Data[i] += s * v
	}
	return m
}

// T returns the transpose of m.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	// Blocked transpose for cache friendliness on large matrices.
	const bs = 32
	for ib := 0; ib < m.Rows; ib += bs {
		imax := min(ib+bs, m.Rows)
		for jb := 0; jb < m.Cols; jb += bs {
			jmax := min(jb+bs, m.Cols)
			for i := ib; i < imax; i++ {
				for j := jb; j < jmax; j++ {
					out.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
				}
			}
		}
	}
	return out
}

// AddRowVector adds the length-Cols vector v to every row of m, in place.
func (m *Matrix) AddRowVector(v []float32) *Matrix {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector length %d != cols %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, x := range v {
			row[j] += x
		}
	}
	return m
}

// ColSums returns the per-column sums of m as a length-Cols slice.
func (m *Matrix) ColSums() []float32 {
	acc := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			acc[j] += float64(v)
		}
	}
	out := make([]float32, m.Cols)
	for j, v := range acc {
		out[j] = float32(v)
	}
	return out
}

// Sum returns the sum of all elements using a float64 accumulator.
func (m *Matrix) Sum() float64 {
	var acc float64
	for _, v := range m.Data {
		acc += float64(v)
	}
	return acc
}

// AbsSum returns the L1 norm (sum of absolute values).
func (m *Matrix) AbsSum() float64 {
	var acc float64
	for _, v := range m.Data {
		acc += math.Abs(float64(v))
	}
	return acc
}

// FrobeniusNorm returns the L2 (Frobenius) norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var acc float64
	for _, v := range m.Data {
		acc += float64(v) * float64(v)
	}
	return math.Sqrt(acc)
}

// MaxAbs returns the maximum absolute element value.
func (m *Matrix) MaxAbs() float32 {
	var mx float32
	for _, v := range m.Data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > mx {
			mx = a
		}
	}
	return mx
}

// MinMax returns the minimum and maximum element values. For an empty
// matrix it returns (0, 0).
func (m *Matrix) MinMax() (lo, hi float32) {
	if len(m.Data) == 0 {
		return 0, 0
	}
	lo, hi = m.Data[0], m.Data[0]
	for _, v := range m.Data[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Equal reports whether m and n have the same shape and elements within tol.
// A NaN on either side is unequal to everything, itself included.
func (m *Matrix) Equal(n *Matrix, tol float64) bool {
	if !m.SameShape(n) {
		return false
	}
	for i, v := range m.Data {
		if diff := math.Abs(float64(v) - float64(n.Data[i])); !(diff <= tol) {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging; large matrices are summarised.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		lo, hi := m.MinMax()
		return fmt.Sprintf("Matrix(%dx%d, min=%g max=%g)", m.Rows, m.Cols, lo, hi)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}

// GatherRows returns a new matrix whose i-th row is m's rows[i]-th row.
func (m *Matrix) GatherRows(rows []int) *Matrix {
	out := New(len(rows), m.Cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// ScatterRowsAdd adds src's i-th row into m's rows[i]-th row.
func (m *Matrix) ScatterRowsAdd(rows []int, src *Matrix) {
	if len(rows) != src.Rows || src.Cols != m.Cols {
		panic("tensor: ScatterRowsAdd shape mismatch")
	}
	for i, r := range rows {
		dst := m.Row(r)
		for j, v := range src.Row(i) {
			dst[j] += v
		}
	}
}
