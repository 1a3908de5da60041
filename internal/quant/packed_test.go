package quant

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"enmc/internal/tensor"
	"enmc/internal/xrand"
)

// The shapes every packed-kernel check runs over: columns around the
// 64-column chunk (tail only, one chunk, chunk + tail, many chunks),
// rows around the VNNI tile's row pairs (odd and even counts, an odd
// last row of a block), the 8-row group and past one 256-row assembly
// block.
var (
	packedCols = []int{1, 7, 63, 64, 65, 128, 200, 256, 1000, 4160}
	packedRows = []int{1, 2, 3, 7, 8, 9, 17, 257, 515}
)

// needAVX2 skips a test that is about the assembly kernel where it is
// not built (purego, other architectures) or the CPU lacks AVX2.
func needAVX2(t testing.TB) {
	if !useAVX2 {
		t.Skip("no AVX2 kernel in this build or on this CPU")
	}
}

// needVNNI skips a test that is about the VNNI kernels where they are
// not built or the CPU lacks AVX512_VNNI and AVX512VL.
func needVNNI(t testing.TB) {
	if !useVNNI {
		t.Skip("no VNNI kernel in this build or on this CPU")
	}
}

// scalarOnly turns the assembly kernels off for the rest of the test.
func scalarOnly(t *testing.T) {
	old := useAVX2
	useAVX2 = false
	t.Cleanup(func() { useAVX2 = old })
}

// avx2Only turns the VNNI tier off for the rest of the test, so the
// AVX2 kernels run where VNNI would.
func avx2Only(t *testing.T) {
	old := useVNNI
	useVNNI = false
	t.Cleanup(func() { useVNNI = old })
}

// tier is one setting of the kernel dispatch.
type tier struct {
	name       string
	avx2, vnni bool
}

// asmTiers are the assembly tiers this build and CPU can run, best
// first: VNNI, then AVX2 alone. It is empty where neither is built.
func asmTiers() []tier {
	var ts []tier
	if useVNNI {
		ts = append(ts, tier{"VNNI", true, true})
	}
	if useAVX2 {
		ts = append(ts, tier{"AVX2", true, false})
	}
	return ts
}

// set switches the dispatch to the tier.
func (k tier) set() { useAVX2, useVNNI = k.avx2, k.vnni }

// outside marks the rows a call must not write: a signalling NaN,
// which no arithmetic result can equal (a NaN that comes out of an
// add or multiply is always quiet).
var outside = math.Float32frombits(0x7fa5a5a5)

// checkPacked runs MatVecBatchRange on each assembly tier — the tile
// kernel, the single-vector kernel for the batch remainder, the
// assembly epilogue for whole 8-row groups, and dotPackedGo and the Go
// epilogue for the rows past them — for every batch size 1…len(xs)
// over each row range, once without a bias and once with bias if it is
// non-nil, and compares every output bit with the scalar path
// (dotPackedGo and the Go epilogue alone), the reference; rows outside
// the range must stay untouched.
func checkPacked(t testing.TB, m *Matrix, xs []Vector, bias []float32, ranges ...[2]int) {
	t.Helper()
	defer tier{avx2: useAVX2, vnni: useVNNI}.set()
	biases := [][]float32{nil}
	if bias != nil {
		biases = append(biases, bias)
	}
	want := make([][]float32, len(xs))
	got := make([][]float32, len(xs))
	for b := range xs {
		want[b] = make([]float32, m.Rows)
		got[b] = make([]float32, m.Rows)
	}
	tiers := asmTiers()
	for _, bias := range biases {
		tier{}.set()
		for b := range xs {
			m.MatVecRange(want[b], &xs[b], bias, 0, m.Rows)
		}
		for _, k := range tiers {
			k.set()
			for _, rg := range ranges {
				lo, hi := rg[0], rg[1]
				for batch := 1; batch <= len(xs); batch++ {
					for b := 0; b < batch; b++ {
						for i := range got[b] {
							got[b][i] = outside
						}
					}
					m.MatVecBatchRange(got[:batch], xs[:batch], bias, lo, hi)
					for b := 0; b < batch; b++ {
						for i, g := range got[b] {
							w := outside
							if i >= lo && i < hi {
								w = want[b][i]
							}
							if math.Float32bits(g) != math.Float32bits(w) {
								t.Fatalf("%s %v %dx%d rows [%d,%d) bias %v batch %d vector %d row %d: got %v, want %v",
									k.name, m.Bits, m.Rows, m.Cols, lo, hi, bias != nil, batch, b, i, g, w)
							}
						}
					}
				}
			}
		}
	}
}

// edgeBias is a bias of n entries that cycles through NaN, ±Inf, −0,
// ±the smallest subnormal, ±1e30 and two ordinary values: eleven
// entries, so each lands on every lane of an 8-row group in turn.
func edgeBias(r *xrand.RNG, n int) []float32 {
	b := make([]float32, n)
	for i := range b {
		switch i % 11 {
		case 0:
			b[i] = float32(math.NaN())
		case 1:
			b[i] = float32(math.Inf(1))
		case 2:
			b[i] = float32(math.Inf(-1))
		case 3:
			b[i] = float32(math.Copysign(0, -1))
		case 4:
			b[i] = math.Float32frombits(1)
		case 5:
			b[i] = -math.Float32frombits(1)
		case 6:
			b[i] = 1e30
		case 7:
			b[i] = -1e30
		default:
			b[i] = r.NormFloat32()
		}
	}
	return b
}

// TestPackedKernelTable is the one table every kernel tier is held to:
// the VNNI and the AVX2 assembly against the Go path by Float32bits
// over the shape grid ×
// INT2/INT4 × operand patterns × B ∈ 1…9 × the full range and
// sub-ranges with odd bounds, each without a bias and with edgeBias's.
// Random weights (per-row and per-tensor scales) against INT4- and
// INT8-magnitude activations are the common case; the constant
// patterns are the adversarial ones: every stored nibble at its
// extreme against activations at ±127 — and at the −128 only a
// hand-built vector can hold — drive VPMADDUBSW's pair sums and the
// int16 chunk sum to their bounds, where saturation or a carry would
// show.
func TestPackedKernelTable(t *testing.T) {
	needAVX2(t)
	const batch = 2*BatchTile + 1
	r := xrand.New(33)
	konst := func(v float32) func() float32 { return func() float32 { return v } }
	for _, cols := range packedCols {
		vectors := func(bits Bits, fill func() float32) []Vector {
			xs := make([]Vector, batch)
			x := make([]float32, cols)
			for b := range xs {
				for i := range x {
					x[i] = fill()
				}
				QuantizeVectorInto(&xs[b], x, bits)
			}
			return xs
		}
		rand4, rand8 := vectors(INT4, r.NormFloat32), vectors(INT8, r.NormFloat32)
		pos127, neg127 := vectors(INT8, konst(1)), vectors(INT8, konst(-1))
		neg128 := vectors(INT8, konst(-1))
		for b := range neg128 {
			for i := range neg128[b].Q {
				neg128[b].Q[i] = -128
			}
		}
		for _, rows := range packedRows {
			bias := edgeBias(r, rows)
			random, ones, negOnes := tensor.NewMatrix(rows, cols), tensor.NewMatrix(rows, cols), tensor.NewMatrix(rows, cols)
			for i := range random.Data {
				random.Data[i], ones.Data[i], negOnes.Data[i] = r.NormFloat32(), 1, -1
			}
			ranges := [][2]int{{0, rows}}
			if rows > 9 {
				ranges = append(ranges, [2]int{3, rows - 5})
			}
			if rows >= 257+17 {
				ranges = append(ranges, [2]int{257, 257 + 17})
			}
			for _, bits := range []Bits{INT2, INT4} {
				wmax, wmin := QuantizeMatrix(ones, bits), QuantizeMatrix(negOnes, bits)
				for _, op := range []struct {
					m  *Matrix
					xs []Vector
				}{
					{QuantizeMatrix(random, bits), rand4},
					{QuantizeMatrixPerTensor(random, bits), rand8},
					{wmax, pos127},
					{wmax, neg127},
					{wmin, pos127},
					{wmax, neg128},
				} {
					if op.m.image == nil {
						t.Fatalf("%v %dx%d: no nibble image", bits, rows, cols)
					}
					checkPacked(t, op.m, op.xs, bias, ranges...)
				}
			}
		}
	}
}

// TestVNNITileWritesOnlyItsRows calls the VNNI tile kernel directly on
// blocks of 1…9, 255 and 256 rows, with and without a tail chunk: each
// vector's first rows sums must be dotPackedGo's, and every other int32
// of the 4×256 output must keep its sentinel — an odd last row stored
// as a pair would write one past its vector's rows, and past the whole
// output at vector 3 of a full block.
func TestVNNITileWritesOnlyItsRows(t *testing.T) {
	needVNNI(t)
	const sentinel = -0x5a5a5a5a
	r := xrand.New(9)
	for _, cols := range []int{128, 100} {
		m, _ := randQuantized(r, blockRows, cols, INT4)
		stride, full := RowBytes(cols), cols/chunkCols
		xs := make([]Vector, BatchTile)
		var (
			xp    [BatchTile]*int8
			tails [BatchTile][chunkCols]int8
			tail  *int8
			goTls [][chunkCols]int8
			want  [BatchTile][blockRows]int32
		)
		for v := range xs {
			QuantizeVectorInto(&xs[v], randMatrix(r, 1, cols).Data, INT8)
			xp[v] = &xs[v].Q[0]
			copy(tails[v][:], xs[v].Q[full*chunkCols:])
		}
		if cols%chunkCols != 0 {
			tail, goTls = &tails[0][0], tails[:]
		}
		dotPackedGo(m.image, stride, full, xs, goTls, want[:], 0, blockRows)
		for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256} {
			var got [BatchTile][blockRows]int32
			for v := range got {
				for i := range got[v] {
					got[v][i] = sentinel
				}
			}
			dotPackedTileVNNI(&m.image[0], stride, full, &xp, tail, rows, &got[0][0])
			for v := range got {
				for i, g := range got[v] {
					w := int32(sentinel)
					if i < rows {
						w = want[v][i]
					}
					if g != w {
						t.Fatalf("%d cols, %d rows: vector %d row %d = %d, want %d", cols, rows, v, i, g, w)
					}
				}
			}
		}
	}
}

// FuzzMatVecPacked drives the same comparison from raw bytes: weights
// are arbitrary nibbles (−8 included, which no quantizer emits),
// activations arbitrary int8, and the bias arbitrary float32 bits,
// four bytes of bdata per row, cycled (under four bytes, no bias).
func FuzzMatVecPacked(f *testing.F) {
	edge := edgeBias(xrand.New(3), 11)
	seedBias := make([]byte, 4*len(edge))
	for i, v := range edge {
		binary.LittleEndian.PutUint32(seedBias[4*i:], math.Float32bits(v))
	}
	for i, cols := range packedCols {
		for j, rows := range packedRows {
			f.Add(uint16(rows), uint16(cols), uint16(j), uint16(rows-i%2), uint8(i+j), i%2 == 0,
				[]byte{0xf0, 0x7f, 0x88, byte(i), byte(j)}, []byte{0x7f, 0x80, 0x81, byte(i * j)}, seedBias[:4*((i+j)%12)])
		}
	}
	f.Fuzz(func(t *testing.T, rows, cols, lo, hi uint16, batch uint8, int2 bool, wdata, xdata, bdata []byte) {
		needAVX2(t)
		m := &Matrix{Bits: INT4, Rows: 1 + int(rows)%600, Cols: 1 + int(cols)%4200}
		if int2 {
			m.Bits = INT2
		}
		if len(wdata) == 0 || len(xdata) == 0 {
			return
		}
		stride := RowBytes(m.Cols)
		m.image = make([]byte, m.Rows*stride)
		for i := 0; i < m.Rows*m.Cols; i++ {
			nib := wdata[i/2%len(wdata)] >> (i % 2 * 4) & 0x0f
			q := int8(nib<<4) >> 4
			if int2 {
				q %= 2 // −1, 0 or 1
			}
			r, j := i/m.Cols, i%m.Cols
			m.image[r*stride+j/chunkCols*chunkBytes+j%chunkBytes] |= byte(q+8) << (j % chunkCols / chunkBytes * 4)
		}
		m.Scales = make([]float32, m.Rows)
		for i := range m.Scales {
			m.Scales[i] = 1 / float32(1+i%7)
		}
		xs := make([]Vector, 1+int(batch)%(2*BatchTile+1))
		for b := range xs {
			xs[b] = Vector{Bits: INT8, Scale: 1 / float32(3+b), Q: make([]int8, m.Cols)}
			for i := range xs[b].Q {
				xs[b].Q[i] = int8(xdata[(i+b*m.Cols)%len(xdata)])
			}
		}
		var bias []float32
		if n := len(bdata) / 4; n > 0 {
			bias = make([]float32, m.Rows)
			for i := range bias {
				bias[i] = math.Float32frombits(binary.LittleEndian.Uint32(bdata[4*(i%n):]))
			}
		}
		l, h := int(lo)%(m.Rows+1), int(hi)%(m.Rows+1)
		if l > h {
			l, h = h, l
		}
		checkPacked(t, m, xs, bias, [2]int{l, h})
	})
}

// TestParallelQuantizeMatchesSerial: the quantizers split their rows
// across up to GOMAXPROCS goroutines; Q or the nibble image, and
// Scales, must be the bytes the single-goroutine run produces.
func TestParallelQuantizeMatchesSerial(t *testing.T) {
	r := xrand.New(41)
	w := tensor.NewMatrix(2051, 130) // four blocks at GOMAXPROCS 4, with an odd last one
	for i := range w.Data {
		w.Data[i] = float32(r.NormFloat64())
	}
	build := func(procs int, perTensor bool, bits Bits) *Matrix {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		if perTensor {
			return QuantizeMatrixPerTensor(w, bits)
		}
		return QuantizeMatrix(w, bits)
	}
	for _, bits := range []Bits{INT2, INT4, INT8} {
		for _, perTensor := range []bool{false, true} {
			serial, parallel := build(1, perTensor, bits), build(4, perTensor, bits)
			what := fmt.Sprintf("%v perTensor=%v", bits, perTensor)
			if !slices.Equal(serial.Q, parallel.Q) {
				t.Fatalf("%s: Q differs", what)
			}
			if !bytes.Equal(serial.image, parallel.image) {
				t.Fatalf("%s: nibble image differs", what)
			}
			for i := range serial.Scales {
				if math.Float32bits(serial.Scales[i]) != math.Float32bits(parallel.Scales[i]) {
					t.Fatalf("%s: scale %d differs", what, i)
				}
			}
		}
	}
}

// TestMatVecReadsLiveQ: the kernels read Vector.Q itself, so editing
// it after quantization changes the answer the way the scalar
// reference says (a cached transformed copy once made this go stale).
func TestMatVecReadsLiveQ(t *testing.T) {
	qm, qx := randQuantized(xrand.New(8), 40, 130, INT4)
	got := make([]float32, qm.Rows)
	qm.MatVec(got, qx)
	for i := range qx.Q {
		qx.Q[i] = -qx.Q[i]
	}
	qx.Q[129] = 7
	qm.MatVec(got, qx)
	for i, w := range refMatVec(qm, qx) {
		if math.Float32bits(got[i]) != math.Float32bits(w) {
			t.Fatalf("row %d after editing Q: got %v, scalar reference %v", i, got[i], w)
		}
	}
}

// TestStreamBytesFollowsDispatch: StreamBytes is what every kernel
// reads, whichever is dispatched — the padded nibble image at
// INT2/INT4, Q at INT8, a 4-byte scale per row either way — and Bytes
// stays the modelled packed payload.
func TestStreamBytesFollowsDispatch(t *testing.T) {
	qm, _ := randQuantized(xrand.New(4), 21, 70, INT4)
	q8, _ := randQuantized(xrand.New(4), 21, 70, INT8)
	const image, int8s = 21*2*chunkBytes + 4*21, 21*70 + 4*21
	if got := qm.Bytes(); got != 21*70/2 {
		t.Fatalf("Bytes = %d, want %d", got, 21*70/2)
	}
	on := useAVX2
	scalarOnly(t)
	for _, avx2 := range []bool{on, false} {
		useAVX2 = avx2
		if got := qm.StreamBytes(); got != image {
			t.Fatalf("AVX2 %v: INT4 StreamBytes = %d, want %d", avx2, got, image)
		}
		if got := qm.BatchStreamBytes(2*BatchTile + 1); got != 3*image {
			t.Fatalf("AVX2 %v: INT4 BatchStreamBytes(9) = %d, want %d", avx2, got, 3*image)
		}
		if got := q8.StreamBytes(); got != int8s {
			t.Fatalf("AVX2 %v: INT8 StreamBytes = %d, want %d", avx2, got, int8s)
		}
		if got := q8.BatchStreamBytes(2*BatchTile + 1); got != 9*int8s {
			t.Fatalf("AVX2 %v: INT8 BatchStreamBytes(9) = %d, want %d", avx2, got, 9*int8s)
		}
	}
}
