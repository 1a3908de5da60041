// Package quant implements the fixed-point quantization used by the
// ENMC Screener. The paper runs the screening phase in INT4
// (Section 5.2, Table 3) after finding in Fig. 12(b) that 4-bit
// fixed-point preserves approximation quality; this package provides
// symmetric linear quantizers for INT2/INT4/INT8, packed INT4
// storage, and an integer MAC kernel that mirrors the hardware
// datapath: int8 operands, int32 accumulation, one dequantization per
// output element.
package quant

import (
	"fmt"

	"enmc/internal/tensor"
)

// Bits selects the quantization precision.
type Bits int

// Supported precisions. INT4 is the ENMC hardware configuration.
const (
	INT2 Bits = 2
	INT4 Bits = 4
	INT8 Bits = 8
)

func (b Bits) String() string { return fmt.Sprintf("INT%d", int(b)) }

// MaxLevel returns the largest representable magnitude for the
// precision, e.g. 7 for INT4 (symmetric range [-7, 7]; -8 is unused
// so the datapath stays symmetric like typical MAC arrays).
func (b Bits) MaxLevel() int32 {
	switch b {
	case INT2, INT4, INT8:
		return int32(1)<<(uint(b)-1) - 1
	default:
		panic(fmt.Sprintf("quant: unsupported precision %d bits", int(b)))
	}
}

// Vector is a quantized vector: q[i] ≈ round(x[i]/Scale).
type Vector struct {
	Bits  Bits
	Scale float32
	Q     []int8

	// biased caches q + (MaxLevel+1) as uint64 scalars for the SWAR
	// GEMV kernel (INT2/INT4 only; nil otherwise). Maintained by
	// QuantizeVectorInto; vectors built by hand simply fall back to
	// the scalar kernel.
	biased []uint64
}

// QuantizeVector quantizes x symmetrically at the given precision.
// A zero vector gets scale 1 so dequantization stays well-defined.
func QuantizeVector(x []float32, bits Bits) *Vector {
	v := &Vector{}
	QuantizeVectorInto(v, x, bits)
	return v
}

// QuantizeVectorInto quantizes x into dst, reusing dst.Q when its
// capacity suffices — the destination-reuse variant the allocation-
// free classify path runs on. The result is identical to
// QuantizeVector.
func QuantizeVectorInto(dst *Vector, x []float32, bits Bits) {
	maxLevel := bits.MaxLevel()
	maxAbs := tensor.MaxAbs(x)
	scale := maxAbs / float32(maxLevel)
	if scale == 0 {
		scale = 1
	}
	if cap(dst.Q) < len(x) {
		dst.Q = make([]int8, len(x))
	}
	dst.Q = dst.Q[:len(x)]
	for i, v := range x {
		dst.Q[i] = clampRound(v/scale, maxLevel)
	}
	dst.Bits = bits
	dst.Scale = scale
	if bits <= INT4 {
		if cap(dst.biased) < len(x) {
			dst.biased = make([]uint64, len(x))
		}
		dst.biased = dst.biased[:len(x)]
		bias := int32(maxLevel) + 1
		for i, q := range dst.Q {
			dst.biased[i] = uint64(int32(q) + bias)
		}
	} else {
		dst.biased = nil
	}
}

// Dequantize reconstructs the float32 vector.
func (v *Vector) Dequantize() []float32 {
	out := make([]float32, len(v.Q))
	for i, q := range v.Q {
		out[i] = float32(q) * v.Scale
	}
	return out
}

// Matrix is a quantized row-major matrix with per-row scales, the
// layout a weight-stationary MAC array consumes: each streamed row
// carries one scale word.
type Matrix struct {
	Bits       Bits
	Rows, Cols int
	Scales     []float32 // len Rows
	Q          []int8    // len Rows*Cols

	// SWAR acceleration structure (INT2/INT4 only), built by
	// BuildAccel: panels packs each aligned 4-row group column-major —
	// panels[(i/4)*Cols+j] holds rows i..i+3 at column j as biased
	// (always-positive) 16-bit lanes — and rowSums holds per-row Σq for
	// the bias correction. Matrices assembled by hand (e.g. the
	// deserializer) may leave these nil; MatVec then falls back to the
	// scalar-blocked kernel.
	panels  []uint64
	rowSums []int32
}

// BuildAccel (re)builds the SWAR panel packing from Q. It is called
// by the quantizers and is safe to call on any fully-populated
// matrix; INT8 matrices have no packing (16-bit lanes would overflow)
// and reset it to nil.
func (m *Matrix) BuildAccel() {
	if m.Bits > INT4 {
		m.panels, m.rowSums = nil, nil
		return
	}
	m.rowSums = make([]int32, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s int32
		for _, q := range m.Row(i) {
			s += int32(q)
		}
		m.rowSums[i] = s
	}
	bias := m.Bits.MaxLevel() + 1
	n := m.Cols
	m.panels = make([]uint64, (m.Rows/4)*n)
	for p := 0; p < m.Rows/4; p++ {
		r0, r1, r2, r3 := m.Row(4*p), m.Row(4*p+1), m.Row(4*p+2), m.Row(4*p+3)
		dst := m.panels[p*n : (p+1)*n]
		for j := 0; j < n; j++ {
			dst[j] = uint64(int32(r0[j])+bias) |
				uint64(int32(r1[j])+bias)<<16 |
				uint64(int32(r2[j])+bias)<<32 |
				uint64(int32(r3[j])+bias)<<48
		}
	}
}

// QuantizeMatrix quantizes m row-wise at the given precision.
func QuantizeMatrix(m *tensor.Matrix, bits Bits) *Matrix {
	qm := &Matrix{
		Bits:   bits,
		Rows:   m.Rows,
		Cols:   m.Cols,
		Scales: make([]float32, m.Rows),
		Q:      make([]int8, m.Rows*m.Cols),
	}
	maxLevel := bits.MaxLevel()
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		scale := tensor.MaxAbs(row) / float32(maxLevel)
		if scale == 0 {
			scale = 1
		}
		qm.Scales[i] = scale
		qrow := qm.Q[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			qrow[j] = clampRound(v/scale, maxLevel)
		}
	}
	qm.BuildAccel()
	return qm
}

// QuantizeMatrixPerTensor quantizes with one shared scale, the
// cheaper hardware option; kept for the per-row vs per-tensor
// ablation.
func QuantizeMatrixPerTensor(m *tensor.Matrix, bits Bits) *Matrix {
	qm := &Matrix{
		Bits:   bits,
		Rows:   m.Rows,
		Cols:   m.Cols,
		Scales: make([]float32, m.Rows),
		Q:      make([]int8, m.Rows*m.Cols),
	}
	maxLevel := bits.MaxLevel()
	scale := tensor.MaxAbs(m.Data) / float32(maxLevel)
	if scale == 0 {
		scale = 1
	}
	for i := range qm.Scales {
		qm.Scales[i] = scale
	}
	for i, v := range m.Data {
		qm.Q[i] = clampRound(v/scale, maxLevel)
	}
	qm.BuildAccel()
	return qm
}

// Row returns quantized row i sharing storage.
func (m *Matrix) Row(i int) []int8 { return m.Q[i*m.Cols : (i+1)*m.Cols] }

// Dequantize reconstructs a float32 matrix.
func (m *Matrix) Dequantize() *tensor.Matrix {
	out := tensor.NewMatrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		s := m.Scales[i]
		src := m.Row(i)
		dst := out.Row(i)
		for j, q := range src {
			dst[j] = float32(q) * s
		}
	}
	return out
}

// Bytes reports the packed storage footprint of the quantized
// payload (excluding scales): Rows*Cols elements at Bits each.
func (m *Matrix) Bytes() int64 {
	return (int64(m.Rows)*int64(m.Cols)*int64(m.Bits) + 7) / 8
}

// StreamBytes reports the bytes one MatVec actually reads from the
// matrix with the kernel it dispatches for a quantized vector: the
// SWAR panels hold each INT2/INT4 weight in a 16-bit lane (four times
// the packed INT4 image Bytes reports) plus a scale and a row sum per
// row; unpacked rows and INT8 stream Q at a byte per weight plus the
// scale. This is the traffic a roofline should be computed from.
func (m *Matrix) StreamBytes() int64 {
	if m.panels == nil {
		return int64(len(m.Q)) + 4*int64(m.Rows)
	}
	return 8*int64(len(m.panels)) + int64(m.Rows&3)*int64(m.Cols) + 8*int64(m.Rows)
}

// BatchStreamBytes is StreamBytes for a MatVecBatch of b quantized
// vectors: one stream per full tile plus one per remainder vector.
func (m *Matrix) BatchStreamBytes(b int) int64 {
	if m.panels != nil {
		b = b/BatchTile + b%BatchTile
	}
	return int64(b) * m.StreamBytes()
}

// MatVec computes dst = dequant(m)·dequant(x) using the integer
// datapath: per-row int32 accumulation of int8 products, then a
// single float multiply by (rowScale · xScale). This is bit-exact
// with what the Screener MAC array computes. The inner loop is a
// 4-row-blocked, 8-wide-unrolled kernel: the activation loads are
// amortized across four weight rows and the unroll breaks the
// accumulation dependency chain — integer addition is associative,
// so the result is bit-identical to the scalar loop.
func (m *Matrix) MatVec(dst []float32, x *Vector) {
	if len(x.Q) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("quant: MatVec shapes %dx%d · %d -> %d", m.Rows, m.Cols, len(x.Q), len(dst)))
	}
	m.matVecRange(dst, x, 0, m.Rows)
}

// MatVecRange computes dst[i] = dequant(m).Row(i)·dequant(x) for rows
// lo ≤ i < hi only, leaving the rest of dst untouched. dst is indexed
// globally (length m.Rows), so disjoint ranges can be filled from
// concurrent goroutines — the shard kernel of the intra-query
// parallel screening GEMV.
func (m *Matrix) MatVecRange(dst []float32, x *Vector, lo, hi int) {
	if len(x.Q) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("quant: MatVecRange shapes %dx%d · %d -> %d", m.Rows, m.Cols, len(x.Q), len(dst)))
	}
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("quant: MatVecRange rows [%d,%d) of %d", lo, hi, m.Rows))
	}
	m.matVecRange(dst, x, lo, hi)
}

// matVecRange dispatches to the fastest kernel available: the SWAR
// path needs the matrix panel packing and a biased vector cache (both
// INT2/INT4-only); anything else — INT8, hand-assembled operands —
// takes the scalar-blocked kernel. Both produce the same int32 row
// sums, so the choice is invisible in the output bits.
func (m *Matrix) matVecRange(dst []float32, x *Vector, lo, hi int) {
	if m.panels != nil && x.biased != nil && len(x.biased) == m.Cols {
		m.matVecRangeSWAR(dst, x, lo, hi)
		return
	}
	m.matVecRangeBlocked(dst, x, lo, hi)
}

// matVecRangeSWAR is the 4-rows-per-word GEMV kernel. Weights and
// activations are biased to be strictly positive (w' = w+bw,
// x' = x+bx with b = MaxLevel+1), four weight rows live in the 16-bit
// lanes of one uint64, and a single 64-bit multiply by the scalar x'
// then performs four MACs at once: lane products are at most 15·15
// and per-lane sums are flushed to int32 accumulators every 256
// columns, so lanes can never carry into each other. The bias is
// removed exactly afterwards — Σw'x' = Σwx + bx·Σw + bw·Σx + n·bw·bx,
// with Σw per row precomputed by BuildAccel — so the result is the
// same integer the scalar kernel accumulates, hence bit-identical
// output.
func (m *Matrix) matVecRangeSWAR(dst []float32, x *Vector, lo, hi int) {
	n := m.Cols
	xb := x.biased
	bw := m.Bits.MaxLevel() + 1
	bx := x.Bits.MaxLevel() + 1
	var sumX int32
	for _, q := range x.Q {
		sumX += int32(q)
	}
	xcorr := bw*sumX + int32(n)*bw*bx
	xs := x.Scale

	// Rows before the first aligned panel and past the last one run on
	// the scalar kernel.
	if r := lo & 3; r != 0 {
		edge := lo + 4 - r
		if edge > hi {
			edge = hi
		}
		m.matVecRangeBlocked(dst, x, lo, edge)
		lo = edge
	}
	aligned := m.Rows &^ 3
	if aligned > hi {
		aligned = hi
	}
	i := lo
	// Two panel groups (8 rows) per pass: the activation lane vector
	// is loaded once and feeds both panel streams, halving the load
	// traffic that bounds the single-group loop.
	for ; i+8 <= aligned; i += 8 {
		base := (i >> 2) * n
		pw0 := m.panels[base : base+n : base+n]
		pw1 := m.panels[base+n : base+2*n : base+2*n]
		var a0, a1, a2, a3, a4, a5, a6, a7 int32
		j := 0
		for j < n {
			end := j + 256
			if end > n {
				end = n
			}
			cw0 := pw0[j:end]
			cw1 := pw1[j:end][:len(cw0)]
			cx := xb[j:end][:len(cw0)]
			var accA0, accA1, accB0, accB1 uint64
			t := 0
			for ; t+8 <= len(cw0); t += 8 {
				x0, x1, x2, x3 := cx[t], cx[t+1], cx[t+2], cx[t+3]
				accA0 += cw0[t]*x0 + cw0[t+1]*x1 + cw0[t+2]*x2 + cw0[t+3]*x3
				accB0 += cw1[t]*x0 + cw1[t+1]*x1 + cw1[t+2]*x2 + cw1[t+3]*x3
				x4, x5, x6, x7 := cx[t+4], cx[t+5], cx[t+6], cx[t+7]
				accA1 += cw0[t+4]*x4 + cw0[t+5]*x5 + cw0[t+6]*x6 + cw0[t+7]*x7
				accB1 += cw1[t+4]*x4 + cw1[t+5]*x5 + cw1[t+6]*x6 + cw1[t+7]*x7
			}
			for ; t < len(cw0); t++ {
				accA0 += cw0[t] * cx[t]
				accB0 += cw1[t] * cx[t]
			}
			accA := accA0 + accA1
			accB := accB0 + accB1
			a0 += int32(accA & 0xffff)
			a1 += int32(accA >> 16 & 0xffff)
			a2 += int32(accA >> 32 & 0xffff)
			a3 += int32(accA >> 48 & 0xffff)
			a4 += int32(accB & 0xffff)
			a5 += int32(accB >> 16 & 0xffff)
			a6 += int32(accB >> 32 & 0xffff)
			a7 += int32(accB >> 48 & 0xffff)
			j = end
		}
		dst[i] = float32(a0-bx*m.rowSums[i]-xcorr) * m.Scales[i] * xs
		dst[i+1] = float32(a1-bx*m.rowSums[i+1]-xcorr) * m.Scales[i+1] * xs
		dst[i+2] = float32(a2-bx*m.rowSums[i+2]-xcorr) * m.Scales[i+2] * xs
		dst[i+3] = float32(a3-bx*m.rowSums[i+3]-xcorr) * m.Scales[i+3] * xs
		dst[i+4] = float32(a4-bx*m.rowSums[i+4]-xcorr) * m.Scales[i+4] * xs
		dst[i+5] = float32(a5-bx*m.rowSums[i+5]-xcorr) * m.Scales[i+5] * xs
		dst[i+6] = float32(a6-bx*m.rowSums[i+6]-xcorr) * m.Scales[i+6] * xs
		dst[i+7] = float32(a7-bx*m.rowSums[i+7]-xcorr) * m.Scales[i+7] * xs
	}
	for ; i+4 <= aligned; i += 4 {
		base := (i >> 2) * n
		pw := m.panels[base : base+n : base+n]
		var a0, a1, a2, a3 int32
		j := 0
		for j < n {
			end := j + 256
			if end > n {
				end = n
			}
			// Equal-length chunk slices so the compiler drops the
			// bounds checks; two accumulators break the add dependency
			// chain (each covers ≤128 columns, so lanes stay <2¹⁶ even
			// after the final lane-wise add).
			cw := pw[j:end]
			cx := xb[j:end][:len(cw)]
			var acc0, acc1 uint64
			t := 0
			for ; t+8 <= len(cw); t += 8 {
				acc0 += cw[t]*cx[t] + cw[t+1]*cx[t+1] + cw[t+2]*cx[t+2] + cw[t+3]*cx[t+3]
				acc1 += cw[t+4]*cx[t+4] + cw[t+5]*cx[t+5] + cw[t+6]*cx[t+6] + cw[t+7]*cx[t+7]
			}
			for ; t < len(cw); t++ {
				acc0 += cw[t] * cx[t]
			}
			acc := acc0 + acc1
			a0 += int32(acc & 0xffff)
			a1 += int32(acc >> 16 & 0xffff)
			a2 += int32(acc >> 32 & 0xffff)
			a3 += int32(acc >> 48 & 0xffff)
			j = end
		}
		dst[i] = float32(a0-bx*m.rowSums[i]-xcorr) * m.Scales[i] * xs
		dst[i+1] = float32(a1-bx*m.rowSums[i+1]-xcorr) * m.Scales[i+1] * xs
		dst[i+2] = float32(a2-bx*m.rowSums[i+2]-xcorr) * m.Scales[i+2] * xs
		dst[i+3] = float32(a3-bx*m.rowSums[i+3]-xcorr) * m.Scales[i+3] * xs
	}
	if i < hi {
		m.matVecRangeBlocked(dst, x, i, hi)
	}
}

// matVecRangeBlocked is the portable 4-row-blocked, 8-wide-unrolled
// scalar kernel: activation loads are amortized across four weight
// rows and the unroll breaks the accumulation dependency chain.
func (m *Matrix) matVecRangeBlocked(dst []float32, x *Vector, lo, hi int) {
	xq := x.Q
	n := len(xq)
	cols := m.Cols
	xs := x.Scale
	i := lo
	for ; i+4 <= hi; i += 4 {
		base := i * cols
		r0 := m.Q[base : base+n : base+n]
		r1 := m.Q[base+cols : base+cols+n : base+cols+n]
		r2 := m.Q[base+2*cols : base+2*cols+n : base+2*cols+n]
		r3 := m.Q[base+3*cols : base+3*cols+n : base+3*cols+n]
		var a0, a1, a2, a3 int32
		j := 0
		for ; j+8 <= n; j += 8 {
			x0, x1, x2, x3 := int32(xq[j]), int32(xq[j+1]), int32(xq[j+2]), int32(xq[j+3])
			x4, x5, x6, x7 := int32(xq[j+4]), int32(xq[j+5]), int32(xq[j+6]), int32(xq[j+7])
			a0 += int32(r0[j])*x0 + int32(r0[j+1])*x1 + int32(r0[j+2])*x2 + int32(r0[j+3])*x3 +
				int32(r0[j+4])*x4 + int32(r0[j+5])*x5 + int32(r0[j+6])*x6 + int32(r0[j+7])*x7
			a1 += int32(r1[j])*x0 + int32(r1[j+1])*x1 + int32(r1[j+2])*x2 + int32(r1[j+3])*x3 +
				int32(r1[j+4])*x4 + int32(r1[j+5])*x5 + int32(r1[j+6])*x6 + int32(r1[j+7])*x7
			a2 += int32(r2[j])*x0 + int32(r2[j+1])*x1 + int32(r2[j+2])*x2 + int32(r2[j+3])*x3 +
				int32(r2[j+4])*x4 + int32(r2[j+5])*x5 + int32(r2[j+6])*x6 + int32(r2[j+7])*x7
			a3 += int32(r3[j])*x0 + int32(r3[j+1])*x1 + int32(r3[j+2])*x2 + int32(r3[j+3])*x3 +
				int32(r3[j+4])*x4 + int32(r3[j+5])*x5 + int32(r3[j+6])*x6 + int32(r3[j+7])*x7
		}
		for ; j < n; j++ {
			xv := int32(xq[j])
			a0 += int32(r0[j]) * xv
			a1 += int32(r1[j]) * xv
			a2 += int32(r2[j]) * xv
			a3 += int32(r3[j]) * xv
		}
		dst[i] = float32(a0) * m.Scales[i] * xs
		dst[i+1] = float32(a1) * m.Scales[i+1] * xs
		dst[i+2] = float32(a2) * m.Scales[i+2] * xs
		dst[i+3] = float32(a3) * m.Scales[i+3] * xs
	}
	for ; i < hi; i++ {
		base := i * cols
		row := m.Q[base : base+n : base+n]
		var acc int32
		j := 0
		for ; j+8 <= n; j += 8 {
			acc += int32(row[j])*int32(xq[j]) + int32(row[j+1])*int32(xq[j+1]) +
				int32(row[j+2])*int32(xq[j+2]) + int32(row[j+3])*int32(xq[j+3]) +
				int32(row[j+4])*int32(xq[j+4]) + int32(row[j+5])*int32(xq[j+5]) +
				int32(row[j+6])*int32(xq[j+6]) + int32(row[j+7])*int32(xq[j+7])
		}
		for ; j < n; j++ {
			acc += int32(row[j]) * int32(xq[j])
		}
		dst[i] = float32(acc) * m.Scales[i] * xs
	}
}

// DotInt32 exposes the raw integer accumulation for one row, used by
// the cycle simulator to count MAC operations faithfully.
func (m *Matrix) DotInt32(row int, x []int8) int32 {
	r := m.Row(row)
	if len(x) != len(r) {
		panic("quant: DotInt32 length mismatch")
	}
	var acc int32
	for j, q := range r {
		acc += int32(q) * int32(x[j])
	}
	return acc
}

func clampRound(v float32, maxLevel int32) int8 {
	var r int32
	if v >= 0 {
		r = int32(v + 0.5)
	} else {
		r = int32(v - 0.5)
	}
	if r > maxLevel {
		r = maxLevel
	}
	if r < -maxLevel {
		r = -maxLevel
	}
	return int8(r)
}

// PackINT4 packs int8 nibbles (each in [-8,7]) two per byte, low
// nibble first — the DRAM image format for screener weights.
func PackINT4(q []int8) []byte {
	out := make([]byte, (len(q)+1)/2)
	for i, v := range q {
		nib := byte(v) & 0x0f
		if i%2 == 0 {
			out[i/2] = nib
		} else {
			out[i/2] |= nib << 4
		}
	}
	return out
}

// UnpackINT4 reverses PackINT4; n is the element count.
func UnpackINT4(packed []byte, n int) []int8 {
	out := make([]int8, n)
	for i := 0; i < n; i++ {
		var nib byte
		if i%2 == 0 {
			nib = packed[i/2] & 0x0f
		} else {
			nib = packed[i/2] >> 4
		}
		// Sign-extend the nibble.
		out[i] = int8(nib<<4) >> 4
	}
	return out
}

// PackINT2 packs 2-bit values (each in [-1, 1]) four per byte, lowest
// crumb first — the DRAM image format for INT2 screening weights.
// Values are stored as sign-magnitude crumbs: 00=0, 01=+1, 11=-1.
func PackINT2(q []int8) []byte {
	out := make([]byte, (len(q)+3)/4)
	for i, v := range q {
		var crumb byte
		switch {
		case v > 0:
			crumb = 0b01
		case v < 0:
			crumb = 0b11
		}
		out[i/4] |= crumb << (uint(i%4) * 2)
	}
	return out
}

// UnpackINT2 reverses PackINT2; n is the element count.
func UnpackINT2(packed []byte, n int) []int8 {
	out := make([]int8, n)
	for i := 0; i < n; i++ {
		crumb := packed[i/4] >> (uint(i%4) * 2) & 0b11
		switch crumb {
		case 0b01:
			out[i] = 1
		case 0b11:
			out[i] = -1
		}
	}
	return out
}

// BatchTile is the number of activation vectors the batch-major SWAR
// kernel multiplies against each weight panel word it loads. Four
// vectors' biased lanes (4 × Cols × 8 B) sit in L1 beside the four
// accumulators; see BenchmarkMatVecBatch for the measurement.
const BatchTile = 4

// MatVecBatch computes dsts[b] = dequant(m)·dequant(xs[b]) for every
// vector of the batch, bit-identical to MatVec per vector.
func (m *Matrix) MatVecBatch(dsts [][]float32, xs []Vector) {
	m.MatVecBatchRange(dsts, xs, 0, m.Rows)
}

// MatVecBatchRange is MatVecRange for a batch of vectors, streaming
// the weights once per tile of BatchTile vectors instead of once per
// vector: the weight-stationary reuse that makes ENMC's batch-4
// offloads cost barely more than batch-1. Whatever the tile kernel
// cannot take — INT8, operands without the SWAR packing, rows outside
// the aligned panels, a batch remainder shorter than a tile — runs on
// the single-vector kernels, so every output bit matches MatVecRange.
func (m *Matrix) MatVecBatchRange(dsts [][]float32, xs []Vector, lo, hi int) {
	if len(dsts) != len(xs) {
		panic("quant: MatVecBatchRange batch size mismatch")
	}
	for b := range xs {
		if len(xs[b].Q) != m.Cols || len(dsts[b]) != m.Rows {
			panic(fmt.Sprintf("quant: MatVecBatchRange shapes %dx%d · %d -> %d", m.Rows, m.Cols, len(xs[b].Q), len(dsts[b])))
		}
	}
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("quant: MatVecBatchRange rows [%d,%d) of %d", lo, hi, m.Rows))
	}
	alo, ahi := (lo+3)&^3, hi&^3
	b := 0
	if m.panels != nil && alo < ahi {
		for ; b+BatchTile <= len(xs); b += BatchTile {
			tile := xs[b : b+BatchTile]
			if !m.swarTile(tile) {
				break
			}
			m.matVecTileSWAR((*[BatchTile][]float32)(dsts[b:]), (*[BatchTile]Vector)(tile), alo, ahi)
			for t := range tile {
				m.matVecRangeBlocked(dsts[b+t], &tile[t], lo, alo)
				m.matVecRangeBlocked(dsts[b+t], &tile[t], ahi, hi)
			}
		}
	}
	for ; b < len(xs); b++ {
		m.matVecRange(dsts[b], &xs[b], lo, hi)
	}
}

// swarTile reports whether every vector of the tile carries the
// biased cache the SWAR kernels need.
func (m *Matrix) swarTile(tile []Vector) bool {
	for t := range tile {
		if len(tile[t].biased) != m.Cols {
			return false
		}
	}
	return true
}

// matVecTileSWAR is matVecRangeSWAR over BatchTile vectors at once for
// the 4-aligned rows [lo,hi): each panel word is loaded once and
// multiplied into one lane accumulator per vector, with the same bias
// correction per vector afterwards. A chunk is at most 256 columns of
// products ≤ 15·15, so one accumulator per vector never carries
// between lanes, and the four independent accumulators already break
// the add dependency chain.
func (m *Matrix) matVecTileSWAR(dsts *[BatchTile][]float32, xs *[BatchTile]Vector, lo, hi int) {
	n := m.Cols
	bw := m.Bits.MaxLevel() + 1
	var bx, xcorr [BatchTile]int32
	for t := range xs {
		var sumX int32
		for _, q := range xs[t].Q {
			sumX += int32(q)
		}
		bx[t] = xs[t].Bits.MaxLevel() + 1
		xcorr[t] = bw*sumX + int32(n)*bw*bx[t]
	}
	x0, x1, x2, x3 := xs[0].biased[:n], xs[1].biased[:n], xs[2].biased[:n], xs[3].biased[:n]
	for i := lo; i < hi; i += 4 {
		base := (i >> 2) * n
		pw := m.panels[base : base+n : base+n]
		var a [BatchTile][4]int32
		for j := 0; j < n; j += 256 {
			end := min(j+256, n)
			acc0, acc1, acc2, acc3 := tileLanes(pw[j:end], x0[j:end], x1[j:end], x2[j:end], x3[j:end])
			for t, acc := range [BatchTile]uint64{acc0, acc1, acc2, acc3} {
				a[t][0] += int32(acc & 0xffff)
				a[t][1] += int32(acc >> 16 & 0xffff)
				a[t][2] += int32(acc >> 32 & 0xffff)
				a[t][3] += int32(acc >> 48 & 0xffff)
			}
		}
		for t := range a {
			xs1, dst := xs[t].Scale, dsts[t]
			for r, sum := range a[t] {
				dst[i+r] = float32(sum-bx[t]*m.rowSums[i+r]-xcorr[t]) * m.Scales[i+r] * xs1
			}
		}
	}
}

// tileLanes multiplies one chunk of panel words into four vectors'
// lane accumulators. It is its own function, kept out of line, so the
// four sums and five pointers get registers: inlined into the row
// loop the compiler spills three of the accumulators to the stack.
//
//go:noinline
func tileLanes(cw, c0, c1, c2, c3 []uint64) (acc0, acc1, acc2, acc3 uint64) {
	c0, c1, c2, c3 = c0[:len(cw)], c1[:len(cw)], c2[:len(cw)], c3[:len(cw)]
	for t, w := range cw {
		acc0 += w * c0[t]
		acc1 += w * c1[t]
		acc2 += w * c2[t]
		acc3 += w * c3[t]
	}
	return
}
