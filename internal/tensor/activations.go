package tensor

// ReLU returns max(0, x) elementwise.
func (m *Matrix) ReLU() *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	return out
}

// ReLUGrad returns the derivative of ReLU evaluated at the pre-activation z:
// 1 where z > 0, else 0.
func (m *Matrix) ReLUGrad() *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		if v > 0 {
			out.Data[i] = 1
		}
	}
	return out
}

// ReLUBackwardInPlace masks m by the ReLU derivative at the pre-activation
// z: m[i] is zeroed where z[i] ≤ 0 and kept where z[i] > 0. It fuses
// m.HadamardInPlace(z.ReLUGrad()) without materialising the derivative
// matrix — the backward hot path calls this once per layer per epoch.
func (m *Matrix) ReLUBackwardInPlace(z *Matrix) *Matrix {
	if m.Rows != z.Rows || m.Cols != z.Cols {
		panic("tensor: ReLUBackwardInPlace shape mismatch")
	}
	for i, v := range z.Data {
		if v <= 0 {
			m.Data[i] = 0
		}
	}
	return m
}

// ArgMaxRows returns, for each row, the index of its maximum element.
func (m *Matrix) ArgMaxRows() []int {
	out := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best, bi := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, bi = v, j+1
			}
		}
		out[i] = bi
	}
	return out
}
