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

// ArgMax returns the index of row's largest element: the first of equal
// maxima wins, and a NaN after index 0 never does (it compares false).
func ArgMax(row []float32) int {
	bi := 0
	for j, v := range row {
		if v > row[bi] {
			bi = j
		}
	}
	return bi
}
