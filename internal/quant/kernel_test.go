package quant

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"enmc/internal/tensor"
	"enmc/internal/xrand"
)

// dotInt32 is row i's raw integer accumulation against x, read
// through RowInto.
func dotInt32(m *Matrix, i int, x []int8) int32 {
	q := make([]int8, m.Cols)
	m.RowInto(q, i)
	var acc int32
	for j, v := range q {
		acc += int32(v) * int32(x[j])
	}
	return acc
}

// dequantize reconstructs m's float32 matrix through RowInto.
func dequantize(m *Matrix) *tensor.Matrix {
	out := tensor.NewMatrix(m.Rows, m.Cols)
	q := make([]int8, m.Cols)
	for i := 0; i < m.Rows; i++ {
		m.RowInto(q, i)
		for j, v := range q {
			out.Row(i)[j] = float32(v) * m.Scales[i]
		}
	}
	return out
}

// refMatVec is the plain GEMV over dotInt32, one row at a time.
func refMatVec(m *Matrix, x *Vector) []float32 {
	out := make([]float32, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = float32(dotInt32(m, i, x.Q)) * m.Scales[i] * x.Scale
	}
	return out
}

// levelOracle recomputes a matrix's levels and scales from its float
// source with the quantizers' rule — scale = max|v|/MaxLevel over the
// row (or the whole matrix), 1 where that is zero, level =
// clampRound(v/scale) — and never reads Q or the nibble image.
func levelOracle(w *tensor.Matrix, bits Bits, perTensor bool) (levels [][]int8, scales []float32) {
	maxLevel := bits.MaxLevel()
	for i := 0; i < w.Rows; i++ {
		src := w.Row(i)
		if perTensor {
			src = w.Data
		}
		s := tensor.MaxAbs(src) / float32(maxLevel)
		if s == 0 {
			s = 1
		}
		row := make([]int8, w.Cols)
		for j, v := range w.Row(i) {
			row[j] = clampRound(v/s, maxLevel)
		}
		levels, scales = append(levels, row), append(scales, s)
	}
	return levels, scales
}

// oracleMatVec is the plain GEMV over oracle levels, one column at a
// time, ending in the kernels' epilogue.
func oracleMatVec(levels [][]int8, scales []float32, x *Vector, b []float32) []float32 {
	out := make([]float32, len(levels))
	for i, row := range levels {
		var acc int32
		for j, q := range row {
			acc += int32(q) * int32(x.Q[j])
		}
		out[i] = dequant(acc, scales[i], x.Scale, b, i)
	}
	return out
}

func randMatrix(r *xrand.RNG, rows, cols int) *tensor.Matrix {
	w := tensor.NewMatrix(rows, cols)
	for i := range w.Data {
		w.Data[i] = r.NormFloat32()
	}
	return w
}

func randQuantized(r *xrand.RNG, rows, cols int, bits Bits) (*Matrix, *Vector) {
	w := tensor.NewMatrix(rows, cols)
	for i := range w.Data {
		w.Data[i] = r.NormFloat32()
	}
	x := make([]float32, cols)
	for i := range x {
		x[i] = r.NormFloat32()
	}
	return QuantizeMatrix(w, bits), QuantizeVector(x, bits)
}

// TestMatVecBitIdenticalToScalar sweeps odd shapes around the 4-row
// block, the 8-wide unroll, the 8-row kernel groups and the 64-column
// chunks at every supported precision against the level oracle.
func TestMatVecBitIdenticalToScalar(t *testing.T) {
	r := xrand.New(21)
	for _, bits := range []Bits{INT2, INT4, INT8} {
		for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 9, 37} {
			for _, cols := range []int{1, 3, 7, 8, 9, 15, 16, 17, 67, 255, 256, 257, 600} {
				w := randMatrix(r, rows, cols)
				x := make([]float32, cols)
				for i := range x {
					x[i] = r.NormFloat32()
				}
				qm, qx := QuantizeMatrix(w, bits), QuantizeVector(x, bits)
				got := make([]float32, rows)
				qm.MatVec(got, qx)
				levels, scales := levelOracle(w, bits, false)
				for i, want := range oracleMatVec(levels, scales, qx, nil) {
					if math.Float32bits(got[i]) != math.Float32bits(want) {
						t.Fatalf("%v %dx%d row %d: MatVec %v != oracle %v", bits, rows, cols, i, got[i], want)
					}
				}
			}
		}
	}
}

// TestKernelsMatchLevelOracle holds every INT2/INT4 path — the VNNI
// and AVX2 kernels where the build and CPU have them, dotPackedGo with
// them off — to the level oracle, which never reads the image: MatVecRange over
// two shards cut off the 8-row groups and MatVecBatchRange at every
// batch size 1…9, with and without a bias, per-row and per-tensor
// scales, INT4- and INT8-level activations.
func TestKernelsMatchLevelOracle(t *testing.T) {
	const sentinel = float32(-1e30)
	r := xrand.New(71)
	defer tier{avx2: useAVX2, vnni: useVNNI}.set()
	for _, kt := range append(asmTiers(), tier{name: "Go"}) {
		kt.set()
		for _, bits := range []Bits{INT2, INT4} {
			for _, k := range []int{1, 7, 31, 32, 33, 63, 64, 65, 128, 375} {
				for _, rows := range []int{1, 7, 8, 9, 203} {
					perTensor := (k+rows)%2 == 0
					w := randMatrix(r, rows, k)
					qm := QuantizeMatrix(w, bits)
					var b []float32
					if perTensor {
						qm = QuantizeMatrixPerTensor(w, bits)
					} else {
						b = randMatrix(r, 1, rows).Data
					}
					levels, scales := levelOracle(w, bits, perTensor)
					xs := make([]Vector, 2*BatchTile+1)
					want, got := make([][]float32, len(xs)), make([][]float32, len(xs))
					for v := range xs {
						QuantizeVectorInto(&xs[v], randMatrix(r, 1, k).Data, []Bits{INT4, INT8}[v%2])
						want[v] = oracleMatVec(levels, scales, &xs[v], b)
						got[v] = make([]float32, rows)
					}
					what := fmt.Sprintf("%s %v %dx%d perTensor=%v", kt.name, bits, rows, k, perTensor)
					fill := func(n int) {
						for v := 0; v < n; v++ {
							for i := range got[v] {
								got[v][i] = sentinel
							}
						}
					}
					fill(len(xs))
					for v := range xs {
						cut := rows / 3
						qm.MatVecRange(got[v], &xs[v], b, 0, cut)
						qm.MatVecRange(got[v], &xs[v], b, cut, rows)
					}
					compareBits(t, what+" MatVecRange", got, want)
					for batch := 1; batch <= len(xs); batch++ {
						fill(batch)
						qm.MatVecBatchRange(got[:batch], xs[:batch], b, 0, rows)
						compareBits(t, fmt.Sprintf("%s batch %d", what, batch), got[:batch], want[:batch])
					}
				}
			}
		}
	}
}

// TestMatVecRangeCoversAndIsDisjoint splits the rows into random
// ranges and checks the union reproduces the full kernel while rows
// outside each range stay untouched.
func TestMatVecRangeCoversAndIsDisjoint(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		rows := 1 + r.Intn(40)
		cols := 1 + r.Intn(40)
		qm, qx := randQuantized(r, rows, cols, INT4)
		want := make([]float32, rows)
		qm.MatVec(want, qx)

		const sentinel = float32(-1e30)
		got := make([]float32, rows)
		for i := range got {
			got[i] = sentinel
		}
		lo := 0
		for lo < rows {
			hi := lo + 1 + r.Intn(rows-lo)
			qm.MatVecRange(got, qx, nil, lo, hi)
			lo = hi
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		// Empty range writes nothing.
		probe := make([]float32, rows)
		for i := range probe {
			probe[i] = sentinel
		}
		qm.MatVecRange(probe, qx, nil, 0, 0)
		for _, v := range probe {
			if v != sentinel {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMatVecRangePanicsOnBadRange(t *testing.T) {
	qm, qx := randQuantized(xrand.New(5), 8, 8, INT4)
	dst := make([]float32, 8)
	for _, bad := range [][2]int{{-1, 4}, {2, 9}, {5, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("MatVecRange(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			qm.MatVecRange(dst, qx, nil, bad[0], bad[1])
		}()
	}
}

// TestMatVecBatchRangeBitIdenticalToPerVector is the batch kernel's
// contract: for any shape (rows off the 8-row kernel groups, columns
// off the 8-wide unroll and the 64-column chunks), precision, scale
// granularity, batch size around the tile and row sub-range, every
// output bit equals the per-vector MatVec and rows outside the range
// stay put.
func TestMatVecBatchRangeBitIdenticalToPerVector(t *testing.T) {
	const sentinel = float32(-1e30)
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		bits := []Bits{INT2, INT4, INT8}[r.Intn(3)]
		rows := 1 + r.Intn(45)
		cols := 1 + r.Intn(40)
		if r.Intn(4) == 0 {
			cols = 250 + r.Intn(300)
		}
		w := tensor.NewMatrix(rows, cols)
		for i := range w.Data {
			w.Data[i] = r.NormFloat32()
		}
		qm := QuantizeMatrix(w, bits)
		if r.Intn(2) == 0 {
			qm = QuantizeMatrixPerTensor(w, bits)
		}
		batch := 1 + r.Intn(2*BatchTile+1)
		xs := make([]Vector, batch)
		got := make([][]float32, batch)
		for b := range xs {
			x := make([]float32, cols)
			for i := range x {
				x[i] = r.NormFloat32()
			}
			QuantizeVectorInto(&xs[b], x, bits)
			got[b] = make([]float32, rows)
			for i := range got[b] {
				got[b][i] = sentinel
			}
		}
		lo := r.Intn(rows + 1)
		hi := lo + r.Intn(rows-lo+1)
		if r.Intn(3) == 0 {
			lo, hi = 0, rows
		}
		qm.MatVecBatchRange(got, xs, nil, lo, hi)
		want := make([]float32, rows)
		for b := range xs {
			qm.MatVec(want, &xs[b])
			for i := range want {
				if i < lo || i >= hi {
					if got[b][i] != sentinel {
						return false
					}
				} else if math.Float32bits(got[b][i]) != math.Float32bits(want[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantizeVectorIntoReuse checks that a reused destination (grown
// then shrunk) produces exactly what a fresh quantization would.
func TestQuantizeVectorIntoReuse(t *testing.T) {
	r := xrand.New(29)
	var dst Vector
	for _, n := range []int{64, 8, 33, 1, 64} {
		x := make([]float32, n)
		for i := range x {
			x[i] = r.NormFloat32()
		}
		QuantizeVectorInto(&dst, x, INT4)
		fresh := QuantizeVector(x, INT4)
		if dst.Scale != fresh.Scale || dst.Bits != fresh.Bits || len(dst.Q) != len(fresh.Q) {
			t.Fatalf("n=%d: header mismatch", n)
		}
		for i := range fresh.Q {
			if dst.Q[i] != fresh.Q[i] {
				t.Fatalf("n=%d: Q[%d] = %d, want %d", n, i, dst.Q[i], fresh.Q[i])
			}
		}
	}
	// Steady state must not allocate once the buffer has grown.
	x := make([]float32, 64)
	allocs := testing.AllocsPerRun(20, func() {
		QuantizeVectorInto(&dst, x, INT4)
	})
	if allocs != 0 {
		t.Fatalf("QuantizeVectorInto steady state allocates %v/op", allocs)
	}
}

// TestBiasEpilogueMatchesAdd is the bias fold's contract: MatVecRange
// and MatVecBatchRange with a bias produce, bit for bit, MatVec followed
// by tensor.Add — on the VNNI and AVX2 single-vector and tile kernels
// and on the Go kernels, over disjoint row shards, at INT2/INT4/INT8. The
// biases span magnitudes far above and below the products', so a
// fused multiply-add (one rounding instead of two) would show.
func TestBiasEpilogueMatchesAdd(t *testing.T) {
	r := xrand.New(61)
	check := func(t *testing.T) {
		for _, bits := range []Bits{INT2, INT4, INT8} {
			for _, shape := range [][2]int{{1, 7}, {37, 65}, {515, 130}} {
				rows, cols := shape[0], shape[1]
				qm, _ := randQuantized(r, rows, cols, bits)
				b := make([]float32, rows)
				for i := range b {
					b[i] = r.NormFloat32() * float32(math.Exp(12*r.Float64()-6))
				}
				xs := make([]Vector, 2*BatchTile+1)
				want := make([][]float32, len(xs))
				for v := range xs {
					x := make([]float32, cols)
					for i := range x {
						x[i] = r.NormFloat32()
					}
					QuantizeVectorInto(&xs[v], x, bits)
					want[v] = make([]float32, rows)
					qm.MatVec(want[v], &xs[v])
					tensor.Add(want[v], want[v], b)
				}
				// Shards as the screener cuts them: off the 8-row groups.
				cuts := []int{0, rows / 3, rows / 3 * 2, rows}
				got := make([][]float32, len(xs))
				for v := range xs {
					got[v] = make([]float32, rows)
					for s := 0; s+1 < len(cuts); s++ {
						qm.MatVecRange(got[v], &xs[v], b, cuts[s], cuts[s+1])
					}
				}
				compareBits(t, fmt.Sprintf("%v %dx%d single", bits, rows, cols), got, want)
				for v := range got {
					clear(got[v])
				}
				for s := 0; s+1 < len(cuts); s++ {
					qm.MatVecBatchRange(got, xs, b, cuts[s], cuts[s+1])
				}
				compareBits(t, fmt.Sprintf("%v %dx%d batch", bits, rows, cols), got, want)
			}
		}
	}
	t.Run("dispatched", check)
	t.Run("avx2", func(t *testing.T) {
		avx2Only(t)
		check(t)
	})
	t.Run("scalar", func(t *testing.T) {
		scalarOnly(t)
		check(t)
	})
}

func compareBits(t *testing.T, what string, got, want [][]float32) {
	t.Helper()
	for v := range want {
		for i := range want[v] {
			if math.Float32bits(got[v][i]) != math.Float32bits(want[v][i]) {
				t.Fatalf("%s vector %d row %d: %v, want %v", what, v, i, got[v][i], want[v][i])
			}
		}
	}
}
