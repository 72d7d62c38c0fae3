package tensor

import "fmt"

// Sparse is a read-only matrix in CSR form: row r keeps its nonzero entries
// Val[RowPtr[r]:RowPtr[r+1]] at the columns Idx[...], ascending. It is the
// retained form of a left operand that does not change between products
// (layer 1's ÂX): the dense products find an operand's nonzeros by scanning
// it on every call, a Sparse has them listed. An entry is kept exactly when
// the dense products would use it — anything but a zero of either sign, NaN
// included — so a Sparse product adds the same terms in the same ascending
// order and yields the same bits.
type Sparse struct {
	Rows, Cols int
	RowPtr     []int32
	Idx        []int32
	Val        []float32
}

// Nonzeros counts the entries of m a Sparse would keep.
func (m *Matrix) Nonzeros() int {
	n := 0
	for _, v := range m.Data {
		if v != 0 {
			n++
		}
	}
	return n
}

// SparseBytes is the size of the Sparse form of a matrix with rows rows and
// nnz nonzero entries; the dense form takes 4·rows·cols.
func SparseBytes(rows, nnz int) int { return 4*(rows+1) + 8*nnz }

// NewSparse returns the CSR form of m, allocated at its exact size from a
// counting pass.
func NewSparse(m *Matrix) *Sparse { return newSparse(m, false) }

// NewSparseT returns the CSR form of mᵀ without materialising the transpose:
// s.MatMul(n) is then m.TMatMul(n), bit for bit.
func NewSparseT(m *Matrix) *Sparse { return newSparse(m, true) }

func newSparse(m *Matrix, transposed bool) *Sparse {
	s := &Sparse{Rows: m.Rows, Cols: m.Cols}
	if transposed {
		s.Rows, s.Cols = m.Cols, m.Rows
	}
	// each visits the kept entries of m by their place in s. It walks m in
	// row-major order, so whichever way round s is, the entries of one of
	// its rows come in ascending column order.
	each := func(visit func(row, col int, v float32)) {
		for r := 0; r < m.Rows; r++ {
			for c, v := range m.Row(r) {
				switch {
				case v == 0:
				case transposed:
					visit(c, r, v)
				default:
					visit(r, c, v)
				}
			}
		}
	}
	s.RowPtr = make([]int32, s.Rows+1)
	each(func(row, _ int, _ float32) { s.RowPtr[row+1]++ })
	for r := 0; r < s.Rows; r++ {
		s.RowPtr[r+1] += s.RowPtr[r]
	}
	s.Idx = make([]int32, s.RowPtr[s.Rows])
	s.Val = make([]float32, s.RowPtr[s.Rows])
	next := append([]int32(nil), s.RowPtr[:s.Rows]...)
	each(func(row, col int, v float32) {
		s.Idx[next[row]], s.Val[next[row]] = int32(col), v
		next[row]++
	})
	return s
}

// MatMul returns s · n, bit for bit the dense form's MatMul.
func (s *Sparse) MatMul(n *Matrix) *Matrix {
	if s.Cols != n.Rows {
		panic(fmt.Sprintf("tensor: Sparse.MatMul inner dimension mismatch %dx%d · %dx%d", s.Rows, s.Cols, n.Rows, n.Cols))
	}
	out := New(s.Rows, n.Cols)
	s.matmulInto(out, n, nil, s.Rows)
	return out
}

// MatMulRowsInto is Matrix.MatMulRowsInto with s as the left operand.
func (s *Sparse) MatMulRowsInto(n, out *Matrix, rows []int32) {
	if s.Cols != n.Rows || out.Rows != s.Rows || out.Cols != n.Cols {
		panic(fmt.Sprintf("tensor: Sparse.MatMulRowsInto %dx%d · %dx%d into %dx%d", s.Rows, s.Cols, n.Rows, n.Cols, out.Rows, out.Cols))
	}
	s.matmulInto(out, n, rows, len(rows))
}

// matmulInto is matmulInto for a sparse left operand: the same units of
// matmulRows rows, the work estimated from the mean row's nonzeros.
func (s *Sparse) matmulInto(out, n *Matrix, rows []int32, count int) {
	units := (count + matmulRows - 1) / matmulRows
	size := int(int64(len(s.Val)) * int64(count) / int64(max(s.Rows, 1)))
	parallelRows(units, size*n.Cols, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			s.matmulUnit(out, n, rows, u*matmulRows, min((u+1)*matmulRows, count))
		}
	})
}

// matmulUnit accumulates the at most matmulRows rows [lo,hi) of s·n (or rows
// rows[lo:hi]) into out, one AxpyGather per row over the row's entries that
// fall in one L1-sized block of n's rows. Like matmulRange it takes all its
// rows through a block before the next — what keeps the transposed product
// (n as tall as a layer's gradient) from streaming n from memory once per
// output row. A product whose n is one block (layer 1's ÂX·W) is one call
// per row.
func (s *Sparse) matmulUnit(out, n *Matrix, rows []int32, lo, hi int) {
	N := n.Cols
	kb := max(4, matmulL1/(4*max(N, 1)))
	row := func(i int) int {
		if rows != nil {
			return int(rows[i])
		}
		return i
	}
	var cur [matmulRows]int32 // per row, the first entry not yet added
	for i := lo; i < hi; i++ {
		cur[i-lo] = s.RowPtr[row(i)]
	}
	for blockEnd := kb; ; blockEnd += kb {
		last := blockEnd >= s.Cols
		for i := lo; i < hi; i++ {
			r := row(i)
			p, q := int(cur[i-lo]), int(s.RowPtr[r+1])
			if !last {
				q = p
				for q < int(s.RowPtr[r+1]) && int(s.Idx[q]) < blockEnd {
					q++
				}
			}
			AxpyGather(out.Data[r*N:(r+1)*N], s.Val[p:q], s.Idx[p:q], n.Data, 0, N)
			cur[i-lo] = int32(q)
		}
		if last {
			return
		}
	}
}
