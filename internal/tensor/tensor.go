// Package tensor implements the dense float32 linear-algebra
// substrate used by the ENMC reproduction: matrices in row-major
// layout, matrix-vector and matrix-matrix products, and the vector
// helpers the screening algorithm and its baselines are built on.
//
// The package is deliberately simple — classification inference is a
// streaming GEMV, so clarity and predictable memory traffic matter
// more than blocked micro-kernels. All operations are deterministic.
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

// NewMatrix allocates a zeroed Rows×Cols matrix. A matrix of 8 MiB or
// more — a classifier's W — is advised onto transparent huge pages
// (AdviseHugePages) before anything writes to it.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	data := make([]float32, rows*cols)
	AdviseHugePages(data)
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float32) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("tensor: ragged rows")
		}
		copy(m.Row(i), r)
	}
	return m
}

// Row returns row i as a slice sharing the matrix's storage.
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Bytes reports the storage footprint of the matrix payload.
func (m *Matrix) Bytes() int64 { return int64(len(m.Data)) * 4 }

// MatVec computes dst = m·x. dst must have length m.Rows and x length
// m.Cols. It panics on shape mismatch. Every dst[i] has the bits of
// Dot(m.Row(i), x); see MatVecRows.
func (m *Matrix) MatVec(dst, x []float32) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("tensor: MatVec shapes %dx%d · %d -> %d", m.Rows, m.Cols, len(x), len(dst)))
	}
	m.matVecRows(dst, nil, x)
}

// MatVecRows computes dst[j] = m.Row(rows[j])·x for a candidate
// subset, which is exactly the candidates-only classification kernel
// (paper Fig. 6(c)). On amd64 rows are taken four at a time by an SSE
// assembly kernel that prefetches the next four; whatever it does not
// take — the last len(rows)%4 rows, a matrix under four columns, other
// architectures, -tags purego — runs Dot. Both sum in Dot's order with
// separately rounded products, so dst[j] has the bits of
// Dot(m.Row(rows[j]), x) whichever path computed it and wherever the
// row sits in the list (a NaN result is NaN on both, but its sign and
// payload, which Go does not specify, may differ).
func (m *Matrix) MatVecRows(dst []float32, rows []int, x []float32) {
	if len(dst) != len(rows) {
		panic("tensor: MatVecRows length mismatch")
	}
	if len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: MatVecRows %dx%d · %d", m.Rows, m.Cols, len(x)))
	}
	m.matVecRows(dst, rows, x)
}

// listRow returns row j of a gather list: m.Row(rows[j]), or m.Row(j)
// when rows is nil and the list is the matrix's own rows in order.
func (m *Matrix) listRow(rows []int, j int) []float32 {
	if rows != nil {
		j = rows[j]
	}
	return m.Row(j)
}

// dotRows is the scalar gather: dst[j] = Dot(row j of the list, x) for
// from ≤ j < len(dst). It is the fallback of matVecRows and the oracle
// its assembly is tested against.
func (m *Matrix) dotRows(dst []float32, rows []int, x []float32, from int) {
	for j := from; j < len(dst); j++ {
		dst[j] = Dot(m.listRow(rows, j), x)
	}
}

// MatMul returns a·b. Shapes must agree (a.Cols == b.Rows).
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shapes %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		for k, av := range ar {
			if av == 0 {
				continue
			}
			br := b.Row(k)
			for j, bv := range br {
				or[j] += av * bv
			}
		}
	}
	return out
}

// Dot returns the inner product of a and b (equal lengths required).
// Lane j of four partial sums takes the elements ≡ j (mod 4) in order,
// the sums fold as ((s0+s1)+s2)+s3 and the last len%4 elements are
// added one by one. Each product is written float32(a·b): the explicit
// conversion rounds it before the add, which forbids the compiler from
// fusing the two into an FMA (it would on arm64, and on amd64 under
// GOAMD64=v3). The assembly gather kernel multiplies and adds
// separately in this same order, so a logit's bits do not depend on
// which of the two computed it.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	var s0, s1, s2, s3 float32
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += float32(a[i] * b[i])
		s1 += float32(a[i+1] * b[i+1])
		s2 += float32(a[i+2] * b[i+2])
		s3 += float32(a[i+3] * b[i+3])
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += float32(a[i] * b[i])
	}
	return s
}

// Axpy computes dst += alpha*x.
func Axpy(dst []float32, alpha float32, x []float32) {
	if len(dst) != len(x) {
		panic("tensor: Axpy length mismatch")
	}
	for i, v := range x {
		dst[i] += alpha * v
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(x []float32, alpha float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// Add computes dst = a + b element-wise.
func Add(dst, a, b []float32) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("tensor: Add length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Sub computes dst = a - b element-wise.
func Sub(dst, a, b []float32) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("tensor: Sub length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Norm2 returns the Euclidean norm of x, accumulating in float64 for
// stability on long vectors.
func Norm2(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute value in x (0 for empty x).
func MaxAbs(x []float32) float32 {
	var m float32
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the index of the maximum element; ties break low.
// It panics on an empty slice.
func ArgMax(x []float32) int {
	if len(x) == 0 {
		panic("tensor: ArgMax of empty slice")
	}
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}

// MSE returns the mean squared error between a and b in float64.
func MSE(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("tensor: MSE length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s / float64(len(a))
}
