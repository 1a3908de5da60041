package quant

import (
	"bytes"
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
// rows around the 8-row group and past one 256-row assembly block.
var (
	packedCols = []int{1, 7, 63, 64, 65, 128, 200, 256, 1000, 4160}
	packedRows = []int{1, 7, 8, 9, 515}
)

// needAVX2 skips a test that is about the assembly kernel where it is
// not built (purego, other architectures) or the CPU lacks AVX2.
func needAVX2(t testing.TB) {
	if !useAVX2 {
		t.Skip("no AVX2 kernel in this build or on this CPU")
	}
}

// scalarOnly turns the assembly kernel off for the rest of the test.
func scalarOnly(t *testing.T) {
	old := useAVX2
	useAVX2 = false
	t.Cleanup(func() { useAVX2 = old })
}

// checkPacked runs MatVecBatchRange — the tile kernel, the
// single-vector kernel for the batch remainder and the scalar edge
// rows — for every batch size 1…len(xs) over each row range and
// compares every output bit with matVecRangeBlocked, the oracle; rows
// outside the range must stay untouched.
func checkPacked(t testing.TB, m *Matrix, xs []Vector, ranges ...[2]int) {
	t.Helper()
	const sentinel = float32(-1e30)
	want := make([][]float32, len(xs))
	got := make([][]float32, len(xs))
	for b := range xs {
		want[b] = make([]float32, m.Rows)
		m.matVecRangeBlocked(want[b], &xs[b], nil, 0, m.Rows)
		got[b] = make([]float32, m.Rows)
	}
	for _, rg := range ranges {
		lo, hi := rg[0], rg[1]
		for batch := 1; batch <= len(xs); batch++ {
			for b := 0; b < batch; b++ {
				for i := range got[b] {
					got[b][i] = sentinel
				}
			}
			m.MatVecBatchRange(got[:batch], xs[:batch], nil, lo, hi)
			for b := 0; b < batch; b++ {
				for i, g := range got[b] {
					w := sentinel
					if i >= lo && i < hi {
						w = want[b][i]
					}
					if math.Float32bits(g) != math.Float32bits(w) {
						t.Fatalf("%v %dx%d rows [%d,%d) batch %d vector %d row %d: got %v, want %v",
							m.Bits, m.Rows, m.Cols, lo, hi, batch, b, i, g, w)
					}
				}
			}
		}
	}
}

// TestPackedKernelTable is the one table both kernels are held to:
// assembly against matVecRangeBlocked by Float32bits over the shape
// grid × INT2/INT4 × operand patterns × B ∈ 1…9 × the full range and
// sub-ranges with odd bounds. Random weights (per-row and per-tensor
// scales) against INT4- and INT8-magnitude activations are the common
// case; the constant patterns are the adversarial ones: every stored
// nibble at its extreme against activations at ±127 — and at the −128
// only a hand-built vector can hold — drive VPMADDUBSW's pair sums
// and the int16 chunk sum to their bounds, where saturation or a carry
// would show.
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
			random, ones := tensor.NewMatrix(rows, cols), tensor.NewMatrix(rows, cols)
			for i := range random.Data {
				random.Data[i], ones.Data[i] = r.NormFloat32(), 1
			}
			ranges := [][2]int{{0, rows}}
			if rows > 9 {
				ranges = append(ranges, [2]int{3, rows - 5}, [2]int{257, 257 + 17})
			}
			for _, bits := range []Bits{INT2, INT4} {
				wmax := QuantizeMatrix(ones, bits)
				wmin := QuantizeMatrix(ones, bits)
				for i := range wmin.Q {
					wmin.Q[i] = -wmin.Q[i]
				}
				wmin.BuildAccel()
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
					if op.m.packed == nil {
						t.Fatalf("%v %dx%d: no nibble image", bits, rows, cols)
					}
					checkPacked(t, op.m, op.xs, ranges...)
				}
			}
		}
	}
}

// FuzzMatVecPacked drives the same comparison from raw bytes: weights
// are arbitrary nibbles (−8 included, which no quantizer emits),
// activations arbitrary int8.
func FuzzMatVecPacked(f *testing.F) {
	for i, cols := range packedCols {
		for j, rows := range packedRows {
			f.Add(uint16(rows), uint16(cols), uint16(j), uint16(rows-i%2), uint8(i+j), i%2 == 0,
				[]byte{0xf0, 0x7f, 0x88, byte(i), byte(j)}, []byte{0x7f, 0x80, 0x81, byte(i * j)})
		}
	}
	f.Fuzz(func(t *testing.T, rows, cols, lo, hi uint16, batch uint8, int2 bool, wdata, xdata []byte) {
		needAVX2(t)
		m := &Matrix{Bits: INT4, Rows: 1 + int(rows)%600, Cols: 1 + int(cols)%4200}
		if int2 {
			m.Bits = INT2
		}
		if len(wdata) == 0 || len(xdata) == 0 {
			return
		}
		m.Q = make([]int8, m.Rows*m.Cols)
		for i := range m.Q {
			nib := wdata[i/2%len(wdata)] >> (i % 2 * 4) & 0x0f
			m.Q[i] = int8(nib<<4) >> 4
			if int2 {
				m.Q[i] %= 2 // −1, 0 or 1
			}
		}
		m.Scales = make([]float32, m.Rows)
		for i := range m.Scales {
			m.Scales[i] = 1 / float32(1+i%7)
		}
		m.BuildAccel()
		xs := make([]Vector, 1+int(batch)%(2*BatchTile+1))
		for b := range xs {
			xs[b] = Vector{Bits: INT8, Scale: 1 / float32(3+b), Q: make([]int8, m.Cols)}
			for i := range xs[b].Q {
				xs[b].Q[i] = int8(xdata[(i+b*m.Cols)%len(xdata)])
			}
		}
		l, h := int(lo)%(m.Rows+1), int(hi)%(m.Rows+1)
		if l > h {
			l, h = h, l
		}
		checkPacked(t, m, xs, [2]int{l, h})
	})
}

// TestBuildAccelRejectsUnpackable: a value no nibble can hold (a
// corrupt artifact, a hand-built matrix) leaves the image unbuilt and
// MatVec on the scalar kernel, still correct.
func TestBuildAccelRejectsUnpackable(t *testing.T) {
	qm, qx := randQuantized(xrand.New(3), 16, 70, INT4)
	qm.Q[5*70+69] = 9
	qm.BuildAccel()
	if qm.packed != nil {
		t.Fatal("BuildAccel packed a weight outside [-8, 7]")
	}
	got := make([]float32, qm.Rows)
	qm.MatVec(got, qx)
	for i, w := range refMatVec(qm, qx) {
		if got[i] != w {
			t.Fatalf("row %d: %v != %v", i, got[i], w)
		}
	}
}

// TestParallelQuantizeMatchesSerial: the quantizers and BuildAccel split
// their rows across up to GOMAXPROCS goroutines; Q, Scales and the
// nibble image must be the bytes the single-goroutine run produces —
// including the verdict that one unpackable value, wherever its block,
// leaves the matrix without an image.
func TestParallelQuantizeMatchesSerial(t *testing.T) {
	r := xrand.New(41)
	w := tensor.NewMatrix(2051, 130) // four blocks at GOMAXPROCS 4, with an odd last one
	for i := range w.Data {
		w.Data[i] = float32(r.NormFloat64())
	}
	build := func(procs int, perTensor bool, bits Bits, poison int) *Matrix {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		quantize := QuantizeMatrix
		if perTensor {
			quantize = QuantizeMatrixPerTensor
		}
		qm := quantize(w, bits)
		if poison >= 0 {
			qm.Q[poison] = 9
			qm.BuildAccel()
		}
		return qm
	}
	for _, bits := range []Bits{INT2, INT4, INT8} {
		for _, perTensor := range []bool{false, true} {
			for _, poison := range []int{-1, 3, 1000*130 + 129, len(w.Data) - 1} {
				serial, parallel := build(1, perTensor, bits, poison), build(4, perTensor, bits, poison)
				what := fmt.Sprintf("%v perTensor=%v poison=%d", bits, perTensor, poison)
				if !slices.Equal(serial.Q, parallel.Q) {
					t.Fatalf("%s: Q differs", what)
				}
				for i := range serial.Scales {
					if math.Float32bits(serial.Scales[i]) != math.Float32bits(parallel.Scales[i]) {
						t.Fatalf("%s: scale %d differs", what, i)
					}
				}
				if !bytes.Equal(serial.packed, parallel.packed) {
					t.Fatalf("%s: nibble image differs", what)
				}
				if wantImage := bits <= INT4 && poison < 0; (parallel.packed != nil) != wantImage {
					t.Fatalf("%s: image built = %v, want %v", what, parallel.packed != nil, wantImage)
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

// TestStreamBytesFollowsDispatch: StreamBytes is what the dispatched
// kernel reads — the padded nibble image of the 8-row groups plus Q
// for the rows past the last one on the AVX2 path, Q otherwise, a
// 4-byte scale per row either way — and Bytes stays the packed payload.
func TestStreamBytesFollowsDispatch(t *testing.T) {
	qm, _ := randQuantized(xrand.New(4), 21, 70, INT4)
	q8, _ := randQuantized(xrand.New(4), 21, 70, INT8)
	const scalar = 21*70 + 4*21
	if got := q8.StreamBytes(); got != scalar {
		t.Fatalf("INT8 StreamBytes = %d, want %d", got, scalar)
	}
	if got := qm.Bytes(); got != 21*70/2 {
		t.Fatalf("Bytes = %d, want %d", got, 21*70/2)
	}
	if useAVX2 {
		const packed = 16*2*chunkBytes + 5*70 + 4*21
		if got := qm.StreamBytes(); got != packed {
			t.Fatalf("AVX2 StreamBytes = %d, want %d", got, packed)
		}
		if got := qm.BatchStreamBytes(2*BatchTile + 1); got != 3*packed {
			t.Fatalf("AVX2 BatchStreamBytes(9) = %d, want %d", got, 3*packed)
		}
	}
	scalarOnly(t)
	if got := qm.StreamBytes(); got != scalar {
		t.Fatalf("scalar StreamBytes = %d, want %d", got, scalar)
	}
	if got := qm.BatchStreamBytes(2*BatchTile + 1); got != 9*scalar {
		t.Fatalf("scalar BatchStreamBytes(9) = %d, want %d", got, 9*scalar)
	}
}
