// Package quant implements the fixed-point quantization used by the
// ENMC Screener. The paper runs the screening phase in INT4
// (Section 5.2, Table 3) after finding in Fig. 12(b) that 4-bit
// fixed-point preserves approximation quality; this package provides
// symmetric linear quantizers for INT2/INT4/INT8, packed INT4
// storage, and an integer MAC kernel that mirrors the hardware
// datapath: int8 operands, int32 accumulation, one dequantization per
// output element. INT2/INT4 matrices also carry a 4-bit-per-weight
// nibble image that an AVX2 assembly kernel streams on amd64 (not
// under -tags purego); the scalar kernel over Q runs everywhere else
// and produces the same bits.
package quant

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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

	// packed is the nibble image the AVX2 kernel streams (INT2/INT4
	// only), built by BuildAccel: row-major, 4 bits per weight stored
	// as q+8, each row padded to whole chunks of chunkCols columns;
	// byte b of a chunk holds column b in its low nibble and column
	// b+32 in its high nibble, so one 32-byte load unpacks into two
	// vectors that line up with 64 consecutive activations. Matrices
	// assembled by hand (e.g. by the deserializer, until it calls
	// BuildAccel) leave it nil; MatVec then runs the scalar-blocked
	// kernel over Q.
	packed []byte
}

// Geometry of the nibble image and of one assembly call.
const (
	chunkCols  = 64  // columns per chunk
	chunkBytes = 32  // bytes per chunk: two nibbles per byte
	groupRows  = 8   // the assembly takes whole groups of this many rows
	blockRows  = 256 // rows per assembly call (its int32 sums live on the stack)
)

// stride is the byte length of one padded row of the nibble image.
func (m *Matrix) stride() int { return (m.Cols + chunkCols - 1) / chunkCols * chunkBytes }

// usePacked reports whether MatVec dispatches the AVX2 kernel.
func (m *Matrix) usePacked() bool { return useAVX2 && m.packed != nil }

// forRowBlocks calls fn(lo, hi) over a partition of the rows [0, rows)
// of a cols-wide matrix into contiguous blocks, one goroutine per
// block: up to GOMAXPROCS of them, and never one for less than
// blockElems elements, so small matrices stay on the calling goroutine.
// The quantizers' rows are independent, which makes their output the
// same bytes however the rows are split.
func forRowBlocks(rows, cols int, fn func(lo, hi int)) {
	const blockElems = 1 << 16
	workers := min(runtime.GOMAXPROCS(0), rows*cols/blockElems)
	if workers <= 1 {
		fn(0, rows)
		return
	}
	var wg sync.WaitGroup
	per := (rows + workers - 1) / workers
	for lo := 0; lo < rows; lo += per {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, min(lo+per, rows))
	}
	wg.Wait()
}

// BuildAccel (re)builds the nibble image from Q. It is called by the
// quantizers and must be called by anything else that assembles a
// matrix and wants the fast kernel (the deserializer does). INT8 has
// no image, and neither has a matrix holding a value no nibble can
// (possible only in hand-built or corrupt input): both screen on the
// scalar-blocked kernel.
func (m *Matrix) BuildAccel() {
	m.packed = nil
	if m.Bits > INT4 || len(m.Q) == 0 {
		return
	}
	stride := m.stride()
	img := make([]byte, m.Rows*stride)
	var unpackable atomic.Bool // some block met a value that fits no nibble
	forRowBlocks(m.Rows, m.Cols, func(lo, hi int) {
		var seen uint8 // OR of every stored q+8: past 15, some q fits no nibble
		for i := lo; i < hi; i++ {
			row, dst := m.Row(i), img[i*stride:(i+1)*stride]
			for ; len(row) >= chunkCols; row, dst = row[chunkCols:], dst[chunkBytes:] {
				low, high, d := row[:chunkBytes], row[chunkBytes:chunkCols], dst[:chunkBytes]
				for b := range d {
					l, h := uint8(low[b]+8), uint8(high[b]+8)
					d[b] = l | h<<4
					seen |= l | h
				}
			}
			for j, q := range row { // the partial last chunk
				nib := uint8(q + 8)
				dst[j%chunkBytes] |= nib << (j / chunkBytes * 4)
				seen |= nib
			}
		}
		if seen > 15 {
			unpackable.Store(true)
		}
	})
	if !unpackable.Load() {
		m.packed = img
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
	forRowBlocks(m.Rows, m.Cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
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
	})
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
	forRowBlocks(m.Rows, m.Cols, func(lo, hi int) {
		q := qm.Q[lo*m.Cols : hi*m.Cols]
		for i, v := range m.Data[lo*m.Cols : hi*m.Cols] {
			q[i] = clampRound(v/scale, maxLevel)
		}
	})
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
// matrix with the kernel it dispatches: on the AVX2 path the padded
// nibble image (half a byte per weight) for the whole 8-row groups and
// Q for the rows past the last one, Q at a byte per weight otherwise,
// plus one 4-byte scale per row either way. This is the traffic a
// roofline should be computed from.
func (m *Matrix) StreamBytes() int64 {
	weights := int64(len(m.Q))
	if m.usePacked() {
		edge := m.Rows % groupRows
		weights = int64(m.Rows-edge)*int64(m.stride()) + int64(edge)*int64(m.Cols)
	}
	return weights + 4*int64(m.Rows)
}

// BatchStreamBytes is StreamBytes for a MatVecBatch of b quantized
// vectors: one stream per full tile plus one per remainder vector.
func (m *Matrix) BatchStreamBytes(b int) int64 {
	if m.usePacked() {
		b = b/BatchTile + b%BatchTile
	}
	return int64(b) * m.StreamBytes()
}

// MatVec computes dst = dequant(m)·dequant(x) using the integer
// datapath: per-row int32 accumulation of int8 products, then a
// single float multiply by (rowScale · xScale). This is bit-exact
// with what the Screener MAC array computes. Which kernel does the
// accumulation (see matVecRange) does not show: integer addition is
// associative, so every one returns the scalar loop's row sums.
func (m *Matrix) MatVec(dst []float32, x *Vector) {
	m.MatVecRange(dst, x, nil, 0, m.Rows)
}

// MatVecRange computes dst[i] = dequant(m).Row(i)·dequant(x) + b[i]
// for rows lo ≤ i < hi only, leaving the rest of dst untouched; a nil
// b adds nothing. dst and b are indexed globally (length m.Rows), so
// disjoint ranges can be filled from concurrent goroutines — the shard
// kernel of the intra-query parallel screening GEMV. The bias is added
// in the dequantization epilogue while the row is in registers, and the
// result is bit-identical to MatVec followed by tensor.Add (see
// dequant).
func (m *Matrix) MatVecRange(dst []float32, x *Vector, b []float32, lo, hi int) {
	if len(x.Q) != m.Cols || len(dst) != m.Rows || (b != nil && len(b) != m.Rows) {
		panic(fmt.Sprintf("quant: MatVecRange shapes %dx%d · %d + %d -> %d", m.Rows, m.Cols, len(x.Q), len(b), len(dst)))
	}
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("quant: MatVecRange rows [%d,%d) of %d", lo, hi, m.Rows))
	}
	m.matVecRange(dst, x, b, lo, hi)
}

// matVecRange dispatches: whole 8-row groups go to the AVX2 kernel
// when the nibble image exists and the CPU has AVX2; everything else —
// INT8, hand-assembled matrices, the rows left over, other platforms —
// takes the scalar-blocked kernel. Both produce the same int32 row
// sums, so the choice is invisible in the output bits.
func (m *Matrix) matVecRange(dst []float32, x *Vector, b []float32, lo, hi int) {
	if n := (hi - lo) &^ (groupRows - 1); n > 0 && m.usePacked() {
		m.matVecPacked([][]float32{dst}, []Vector{*x}, b, lo, lo+n)
		lo += n
	}
	m.matVecRangeBlocked(dst, x, b, lo, hi)
}

// dequant is the epilogue every kernel ends a row with: the row's
// int32 sum times the row and vector scales, plus the row's bias when
// b is non-nil. The float32 conversion rounds the product before the
// add, which forbids fusing the two into an FMA (the Go spec allows
// that contraction across an unconverted x*y + z, and the compiler
// performs it on FMA targets such as arm64): the sum is the one MatVec
// followed by tensor.Add computes, bit for bit.
func dequant(acc int32, s, xs float32, b []float32, i int) float32 {
	v := float32(acc) * s * xs
	if b != nil {
		return float32(v) + b[i]
	}
	return v
}

// matVecRangeBlocked is the portable 4-row-blocked, 8-wide-unrolled
// scalar kernel over Q: activation loads are amortized across four
// weight rows and the unroll breaks the accumulation dependency chain.
// It is the fallback for whatever the AVX2 kernel does not take and
// the oracle that kernel is tested against.
func (m *Matrix) matVecRangeBlocked(dst []float32, x *Vector, b []float32, lo, hi int) {
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
		dst[i] = dequant(a0, m.Scales[i], xs, b, i)
		dst[i+1] = dequant(a1, m.Scales[i+1], xs, b, i+1)
		dst[i+2] = dequant(a2, m.Scales[i+2], xs, b, i+2)
		dst[i+3] = dequant(a3, m.Scales[i+3], xs, b, i+3)
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
		dst[i] = dequant(acc, m.Scales[i], xs, b, i)
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

// BatchTile is the number of activation vectors the batch-major
// kernel multiplies against each weight chunk it loads: four int32
// accumulators, the two unpacked nibble vectors and their temporaries
// fit the sixteen YMM registers; see BenchmarkMatVecBatch for the
// measurement.
const BatchTile = 4

// MatVecBatch computes dsts[b] = dequant(m)·dequant(xs[b]) for every
// vector of the batch, bit-identical to MatVec per vector.
func (m *Matrix) MatVecBatch(dsts [][]float32, xs []Vector) {
	m.MatVecBatchRange(dsts, xs, nil, 0, m.Rows)
}

// MatVecBatchRange is MatVecRange for a batch of vectors, streaming
// the weights once per tile of BatchTile vectors instead of once per
// vector: the weight-stationary reuse that makes ENMC's batch-4
// offloads cost barely more than batch-1. Whatever the tile kernel
// does not take — see matVecRange — and a batch remainder shorter than
// a tile run on the single-vector kernels, so every output bit matches
// MatVecRange. b, if non-nil, is added to every vector's rows.
func (m *Matrix) MatVecBatchRange(dsts [][]float32, xs []Vector, b []float32, lo, hi int) {
	if len(dsts) != len(xs) {
		panic("quant: MatVecBatchRange batch size mismatch")
	}
	for t := range xs {
		if len(xs[t].Q) != m.Cols || len(dsts[t]) != m.Rows || (b != nil && len(b) != m.Rows) {
			panic(fmt.Sprintf("quant: MatVecBatchRange shapes %dx%d · %d + %d -> %d", m.Rows, m.Cols, len(xs[t].Q), len(b), len(dsts[t])))
		}
	}
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("quant: MatVecBatchRange rows [%d,%d) of %d", lo, hi, m.Rows))
	}
	t := 0
	if n := (hi - lo) &^ (groupRows - 1); n > 0 && m.usePacked() {
		for ; t+BatchTile <= len(xs); t += BatchTile {
			m.matVecPacked(dsts[t:t+BatchTile], xs[t:t+BatchTile], b, lo, lo+n)
			for v := t; v < t+BatchTile; v++ {
				m.matVecRangeBlocked(dsts[v], &xs[v], b, lo+n, hi)
			}
		}
	}
	for ; t < len(xs); t++ {
		m.matVecRange(dsts[t], &xs[t], b, lo, hi)
	}
}

// matVecPacked runs the AVX2 kernel over rows [lo,hi) — whole 8-row
// groups — for one vector or a tile of BatchTile. The assembly returns
// raw int32 sums of (q+8)·x per row; the nibble offset 8·Σx is removed
// here, exactly, and the epilogue is the very expression
// matVecRangeBlocked uses (dequant, spelled out so the bias test is
// hoisted out of the row loop), so the outputs are bit-identical. A
// row's last partial chunk is multiplied against a zero-padded copy of
// the activations' tail (the image pads with nibble 0, any value would
// do).
func (m *Matrix) matVecPacked(dsts [][]float32, xs []Vector, b []float32, lo, hi int) {
	stride, full := m.stride(), m.Cols/chunkCols
	var (
		tails [BatchTile][chunkCols]int8
		tail  *int8
		xp    [BatchTile]*int8
		nib8  [BatchTile]int32
		acc   [blockRows * BatchTile]int32
	)
	for t := range xs {
		q := xs[t].Q
		for _, v := range q {
			nib8[t] += 8 * int32(v)
		}
		xp[t] = &q[0]
		if rem := q[full*chunkCols:]; len(rem) > 0 {
			copy(tails[t][:], rem)
			tail = &tails[0][0]
		}
	}
	for ; lo < hi; lo += blockRows {
		n := min(blockRows, hi-lo)
		w := &m.packed[lo*stride]
		if len(xs) == 1 {
			dotPacked8(w, stride, full, xp[0], tail, n/groupRows, &acc[0])
		} else {
			dotPackedTile(w, stride, full, &xp, tail, n, &acc[0])
		}
		scales := m.Scales[lo : lo+n]
		for t := range xs {
			dst, xscale, off := dsts[t][lo:lo+n], xs[t].Scale, nib8[t]
			if b == nil {
				for r, s := range scales {
					dst[r] = float32(acc[r*len(xs)+t]-off) * s * xscale
				}
				continue
			}
			bias := b[lo : lo+n]
			for r, s := range scales {
				dst[r] = float32(float32(acc[r*len(xs)+t]-off)*s*xscale) + bias[r]
			}
		}
	}
}
