//go:build !amd64 || purego

package tensor

// matVecRows is the gather behind MatVec and MatVecRows where the
// assembly kernel is not built: the scalar Dot loop.
func (m *Matrix) matVecRows(dst []float32, rows []int, x []float32) {
	m.dotRows(dst, rows, x, 0)
}

// sweep is the bracket's sweep, in Go where the assembly is not built.
func (b *TopKBuf) sweep(x []float32, tau float32, limit int) ([]int, bool) {
	return b.sweepKept(x, tau, limit)
}
