// Package quant implements the fixed-point quantization used by the
// ENMC Screener. The paper runs the screening phase in INT4
// (Section 5.2, Table 3) after finding in Fig. 12(b) that 4-bit
// fixed-point preserves approximation quality; this package provides
// symmetric linear quantizers for INT2/INT4/INT8 and an integer MAC
// kernel that mirrors the hardware datapath: int8 operands, int32
// accumulation, one dequantization per output element.
//
// An INT2/INT4 matrix has one form, the chunked nibble image (see
// Matrix): the GEMV kernels stream it, the serialized artifact stores
// it and the simulated DIMM holds it, so every layer counts the same
// bytes. Other packages reach the layout only through RowBytes,
// UnpackRow and Payload. On amd64 with AVX2 (not under -tags purego)
// an assembly kernel streams the image, on VPDPBUSD where the CPU has
// AVX512_VNNI and AVX512VL; a Go kernel with the same contract takes
// everything else and is the assembly's reference.
// INT8 matrices keep one byte per weight in Q.
package quant

import (
	"fmt"
	"runtime"
	"sync"

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
	scale := scaleFor(tensor.MaxAbs(x), maxLevel)
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

// scaleFor is the quantization step that maps maxAbs to maxLevel; an
// all-zero input gets 1 so dequantization stays well-defined.
func scaleFor(maxAbs float32, maxLevel int32) float32 {
	if s := maxAbs / float32(maxLevel); s != 0 {
		return s
	}
	return 1
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

	// Q holds INT8 weights, one byte each (len Rows*Cols). It is nil
	// at INT2/INT4.
	Q []int8

	// image holds INT2/INT4 weights (nil at INT8): row-major,
	// RowBytes(Cols) bytes per row, 4 bits per weight stored as q+8,
	// each row padded with zero nibbles to whole chunks of chunkCols
	// columns; byte b of a chunk holds column b in its low nibble and
	// column b+32 in its high nibble, so one 32-byte load unpacks into
	// two vectors that line up with 64 consecutive activations.
	image []byte
}

// Geometry of the nibble image and of one assembly call.
// kernel_amd64.s hard-codes blockRows in TILELD, the distance between
// two vectors' sums in the tile kernel's output.
const (
	chunkCols  = 64  // columns per chunk
	chunkBytes = 32  // bytes per chunk: two nibbles per byte
	groupRows  = 8   // dotPacked8 takes whole groups of this many rows
	blockRows  = 256 // rows per kernel call (its int32 sums live on the stack)
)

// RowBytes is the byte length of one row of a cols-wide nibble image.
func RowBytes(cols int) int { return (cols + chunkCols - 1) / chunkCols * chunkBytes }

// nibbleAt returns column j's stored nibble (q+8, or 0 past the last
// column) of the image row that starts at row[0].
func nibbleAt(row []byte, j int) byte {
	return row[j/chunkCols*chunkBytes+j%chunkBytes] >> (j % chunkCols / chunkBytes * 4) & 0x0f
}

// UnpackRow decodes the first len(dst) columns of the image row src
// into their levels.
func UnpackRow(dst []int8, src []byte) {
	for j := range dst {
		dst[j] = int8(nibbleAt(src, j)) - 8
	}
}

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

// QuantizeMatrix quantizes m row-wise at the given precision.
func QuantizeMatrix(m *tensor.Matrix, bits Bits) *Matrix {
	maxLevel := bits.MaxLevel()
	return quantize(m, bits, func(row []float32) float32 { return scaleFor(tensor.MaxAbs(row), maxLevel) })
}

// QuantizeMatrixPerTensor quantizes with one shared scale, the
// cheaper hardware option; kept for the per-row vs per-tensor
// ablation.
func QuantizeMatrixPerTensor(m *tensor.Matrix, bits Bits) *Matrix {
	scale := scaleFor(tensor.MaxAbs(m.Data), bits.MaxLevel())
	return quantize(m, bits, func([]float32) float32 { return scale })
}

// quantize stores every row of w at scale scaleOf(row), in one pass
// straight into Q or the nibble image.
func quantize(w *tensor.Matrix, bits Bits, scaleOf func(row []float32) float32) *Matrix {
	maxLevel := bits.MaxLevel()
	qm := &Matrix{Bits: bits, Rows: w.Rows, Cols: w.Cols, Scales: make([]float32, w.Rows)}
	if bits == INT8 {
		qm.Q = make([]int8, w.Rows*w.Cols)
	} else {
		qm.image = make([]byte, w.Rows*RowBytes(w.Cols))
	}
	forRowBlocks(w.Rows, w.Cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := w.Row(i)
			s := scaleOf(row)
			qm.Scales[i] = s
			if bits == INT8 {
				q := qm.Q[i*w.Cols : (i+1)*w.Cols]
				for j, v := range row {
					q[j] = clampRound(v/s, maxLevel)
				}
				continue
			}
			dst := qm.image[i*RowBytes(w.Cols) : (i+1)*RowBytes(w.Cols)]
			for ; len(row) >= chunkCols; row, dst = row[chunkCols:], dst[chunkBytes:] {
				low, high, d := row[:chunkBytes], row[chunkBytes:chunkCols], dst[:chunkBytes]
				for b := range d {
					d[b] = nibble(low[b], s, maxLevel) | nibble(high[b], s, maxLevel)<<4
				}
			}
			for j, v := range row { // the partial last chunk
				dst[j%chunkBytes] |= nibble(v, s, maxLevel) << (j / chunkBytes * 4)
			}
		}
	})
	return qm
}

// nibble is v's level at scale s as the image stores it.
func nibble(v, s float32, maxLevel int32) byte { return byte(clampRound(v/s, maxLevel) + 8) }

// RowInto writes row i's levels into dst[:Cols].
func (m *Matrix) RowInto(dst []int8, i int) {
	if m.Bits == INT8 {
		copy(dst[:m.Cols], m.Q[i*m.Cols:(i+1)*m.Cols])
		return
	}
	UnpackRow(dst[:m.Cols], m.image[i*RowBytes(m.Cols):])
}

// Bytes reports the packed storage footprint of the quantized
// payload (excluding scales): Rows*Cols elements at Bits each.
func (m *Matrix) Bytes() int64 {
	return (int64(m.Rows)*int64(m.Cols)*int64(m.Bits) + 7) / 8
}

// StreamBytes reports the bytes one MatVec reads from the matrix:
// the whole nibble image at INT2/INT4 (every kernel streams it) or Q
// at INT8 — one of the two is empty — plus one 4-byte scale per row.
// This is the traffic a roofline should be computed from.
func (m *Matrix) StreamBytes() int64 {
	return int64(len(m.image)+len(m.Q)) + 4*int64(m.Rows)
}

// BatchStreamBytes is StreamBytes for a MatVecBatch of b quantized
// vectors: at INT2/INT4 one stream per full tile plus one per
// remainder vector, at INT8 one per vector.
func (m *Matrix) BatchStreamBytes(b int) int64 {
	if m.Bits != INT8 {
		b = b/BatchTile + b%BatchTile
	}
	return int64(b) * m.StreamBytes()
}

// PayloadBytes is the length of the weight block Payload returns for
// a rows×cols matrix at the given precision.
func PayloadBytes(bits Bits, rows, cols int) int {
	if bits == INT8 {
		return rows * cols
	}
	return rows * RowBytes(cols)
}

// Payload returns the weights as an artifact stores them: the nibble
// image itself at INT2/INT4 (shared, not copied), Q's bytes at INT8.
func (m *Matrix) Payload() []byte {
	if m.Bits != INT8 {
		return m.image
	}
	p := make([]byte, len(m.Q))
	for i, q := range m.Q {
		p[i] = byte(q)
	}
	return p
}

// FromPayload is Payload's inverse; the matrix adopts p and scales.
// At INT2/INT4 it rejects a data nibble outside the precision's levels
// and a non-zero pad nibble, so Payload returns exactly the p that
// FromPayload accepted.
func FromPayload(bits Bits, rows, cols int, scales []float32, p []byte) (*Matrix, error) {
	maxLevel := bits.MaxLevel()
	if len(p) != PayloadBytes(bits, rows, cols) || len(scales) != rows {
		return nil, fmt.Errorf("quant: %v %dx%d payload of %d bytes with %d scales", bits, rows, cols, len(p), len(scales))
	}
	m := &Matrix{Bits: bits, Rows: rows, Cols: cols, Scales: scales}
	if bits == INT8 {
		m.Q = make([]int8, len(p))
		for i, b := range p {
			m.Q[i] = int8(b)
		}
		return m, nil
	}
	stride := RowBytes(cols)
	for i := 0; i < rows; i++ {
		row := p[i*stride : (i+1)*stride]
		for j := 0; j < 2*stride; j++ {
			nib := int32(nibbleAt(row, j))
			if j < cols && (nib < 8-maxLevel || nib > 8+maxLevel) || j >= cols && nib != 0 {
				return nil, fmt.Errorf("quant: %v row %d column %d stores nibble %d", bits, i, j, nib)
			}
		}
	}
	m.image = p
	return m, nil
}

// MatVec computes dst = dequant(m)·dequant(x) using the integer
// datapath: per-row int32 accumulation of int8 products, then a
// single float multiply by (rowScale · xScale). This is bit-exact
// with what the Screener MAC array computes. Which kernel does the
// accumulation does not show: integer addition is associative, so
// every one returns the same row sums.
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
	if m.Bits == INT8 {
		m.matVecRangeBlocked(dst, x, b, lo, hi)
		return
	}
	m.matVecPacked([][]float32{dst}, []Vector{*x}, b, lo, hi)
}

// dequant is the epilogue the Go kernels end a row with, and the
// expression dequant8 (kernel_amd64.s) evaluates eight rows at a time
// in the same order: the row's int32 sum times the row scale, times
// the vector scale, plus the row's bias when b is non-nil. The float32
// conversion rounds the product before the add, which forbids fusing
// the two into an FMA (the Go spec allows that contraction across an
// unconverted x*y + z, and the compiler performs it on FMA targets
// such as arm64): the sum is the one MatVec followed by tensor.Add
// computes, bit for bit.
func dequant(acc int32, s, xs float32, b []float32, i int) float32 {
	v := float32(acc) * s * xs
	if b != nil {
		return float32(v) + b[i]
	}
	return v
}

// matVecRangeBlocked is the INT8 kernel over Q, 4-row-blocked and
// 8-wide-unrolled: activation loads are amortized across four weight
// rows and the unroll breaks the accumulation dependency chain.
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

// clampRound rounds v half away from zero and clamps it to ±maxLevel.
func clampRound(v float32, maxLevel int32) int8 {
	r := int32(v - 0.5)
	if v >= 0 {
		r = int32(v + 0.5)
	}
	return int8(max(-maxLevel, min(r, maxLevel)))
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
// the nibble image once per tile of BatchTile vectors instead of once
// per vector: the weight-stationary reuse that makes ENMC's batch-4
// offloads cost barely more than batch-1. A batch remainder shorter
// than a tile, and every INT8 vector, runs on its own, so every output
// bit matches MatVecRange. b, if non-nil, is added to every vector's
// rows.
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
	if m.Bits == INT8 {
		for t := range xs {
			m.matVecRangeBlocked(dsts[t], &xs[t], b, lo, hi)
		}
		return
	}
	t := 0
	for ; t+BatchTile <= len(xs); t += BatchTile {
		m.matVecPacked(dsts[t:t+BatchTile], xs[t:t+BatchTile], b, lo, hi)
	}
	for ; t < len(xs); t++ {
		m.matVecPacked(dsts[t:t+1], xs[t:t+1], b, lo, hi)
	}
}

// matVecPacked runs the nibble-image GEMV over rows [lo,hi) for one
// vector or a tile of BatchTile, in blocks of at most blockRows rows.
// With AVX2, dotPacked8 takes the whole 8-row groups of a single vector
// and dotPackedTile every row of a tile — their VNNI forms where the
// CPU has AVX512_VNNI — and dotPackedGo takes the rest.
// All three write raw int32 sums of (q+8)·x per row, vector t's into
// acc[t]. The epilogue then turns each sum into
// float32(float32(acc−8·Σx)·s·xs) + b (dequant's expression): in
// assembly (dequant8) for the block's whole 8-row groups, and in Go
// for the ≤ 7 rows left over and wherever the assembly is not built —
// the two are bit-identical by test (TestPackedKernelTable,
// TestBiasEpilogueMatchesAdd, FuzzMatVecPacked). A row's last partial
// chunk is multiplied against a zero-padded copy of the activations'
// tail.
func (m *Matrix) matVecPacked(dsts [][]float32, xs []Vector, b []float32, lo, hi int) {
	stride, full, nx := RowBytes(m.Cols), m.Cols/chunkCols, len(xs)
	var (
		tails [BatchTile][chunkCols]int8
		tail  *int8
		xp    [BatchTile]*int8
		nib8  [BatchTile]int32
		acc   [BatchTile][blockRows]int32
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
	goTails := tails[:nx]
	if tail == nil {
		goTails = nil
	}
	for ; lo < hi; lo += blockRows {
		n := min(blockRows, hi-lo)
		w := m.image[lo*stride : (lo+n)*stride]
		done, asm := 0, 0
		switch {
		case !useAVX2:
		case nx == 1:
			if done = n &^ (groupRows - 1); done > 0 && useVNNI {
				dotPacked8VNNI(&w[0], stride, full, xp[0], tail, done/groupRows, &acc[0][0])
			} else if done > 0 {
				dotPacked8(&w[0], stride, full, xp[0], tail, done/groupRows, &acc[0][0])
			}
			asm = done
		case nx == BatchTile && useVNNI:
			dotPackedTileVNNI(&w[0], stride, full, &xp, tail, n, &acc[0][0])
			done, asm = n, n&^(groupRows-1)
		case nx == BatchTile:
			dotPackedTile(&w[0], stride, full, &xp, tail, n, &acc[0][0])
			done, asm = n, n&^(groupRows-1)
		}
		if done < n {
			dotPackedGo(w, stride, full, xs, goTails, acc[:nx], done, n)
		}
		scales := m.Scales[lo : lo+n]
		var bias []float32
		var bp *float32
		if b != nil {
			bias = b[lo : lo+n]
			bp = &bias[0]
		}
		for t := range xs {
			dst, xscale, off := dsts[t][lo:lo+n], xs[t].Scale, nib8[t]
			if asm > 0 {
				dequant8(&acc[t][0], off, xscale, &scales[0], bp, asm/groupRows, &dst[0])
			}
			for r := asm; r < n; r++ {
				dst[r] = dequant(acc[t][r]-off, scales[r], xscale, bias, r)
			}
		}
	}
}

// dotPackedGo is the portable kernel and the assembly's reference,
// under the same contract: for each row r in [lo,hi) of the image rows
// starting at w (stride bytes apart) and each vector t, out[t][r] is
// the int32 sum of (q+8)·x over the row's chunks whole chunks read
// against xs[t].Q, then — if tails is non-nil — one more chunk read
// against tails[t]. Rows go four at a time, so each activation load
// serves four rows, as in the INT8 kernel.
func dotPackedGo(w []byte, stride, chunks int, xs []Vector, tails [][chunkCols]int8, out [][blockRows]int32, lo, hi int) {
	for t := range xs {
		for r := lo; r < hi; r += 4 {
			var acc [4]int32
			g, row := min(4, hi-r), w[r*stride:]
			for c := 0; c < chunks; c++ {
				dotChunks(row[c*chunkBytes:], stride, g, (*[chunkCols]int8)(xs[t].Q[c*chunkCols:]), &acc)
			}
			if tails != nil {
				dotChunks(row[chunks*chunkBytes:], stride, g, &tails[t], &acc)
			}
			copy(out[t][r:r+g], acc[:g])
		}
	}
}

// dotChunks adds to acc[i], for each of the g ≤ 4 rows i, the sum of
// (q+8)·x over the 64 columns of the chunk at w[i·stride:][0:32].
func dotChunks(w []byte, stride, g int, x *[chunkCols]int8, acc *[4]int32) {
	if g < 4 {
		for i := 0; i < g; i++ {
			var a int32
			for b, v := range (*[chunkBytes]byte)(w[i*stride:]) {
				a += int32(v&0x0f)*int32(x[b]) + int32(v>>4)*int32(x[b+chunkBytes])
			}
			acc[i] += a
		}
		return
	}
	w0, w1 := (*[chunkBytes]byte)(w), (*[chunkBytes]byte)(w[stride:])
	w2, w3 := (*[chunkBytes]byte)(w[2*stride:]), (*[chunkBytes]byte)(w[3*stride:])
	var a0, a1, a2, a3 int32
	for b := 0; b < chunkBytes; b++ {
		lo, hi := int32(x[b]), int32(x[b+chunkBytes])
		a0 += int32(w0[b]&0x0f)*lo + int32(w0[b]>>4)*hi
		a1 += int32(w1[b]&0x0f)*lo + int32(w1[b]>>4)*hi
		a2 += int32(w2[b]&0x0f)*lo + int32(w2[b]>>4)*hi
		a3 += int32(w3[b]&0x0f)*lo + int32(w3[b]>>4)*hi
	}
	acc[0] += a0
	acc[1] += a1
	acc[2] += a2
	acc[3] += a3
}
