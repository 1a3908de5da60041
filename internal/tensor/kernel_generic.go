//go:build !amd64 || purego

package tensor

// matVecRows is the gather behind MatVec and MatVecRows where the
// assembly kernel is not built: the scalar Dot loop.
func (m *Matrix) matVecRows(dst []float32, rows []int, x []float32) {
	m.dotRows(dst, rows, x, 0)
}
