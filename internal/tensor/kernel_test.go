package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"enmc/internal/xrand"
)

// The gather kernel against its oracle: whatever path MatVecRows and
// MatVec take (four-row assembly groups, leftover rows, the column
// tail, or — under -tags purego — the scalar loop alone), every output
// must carry the bits of a plain Dot over that row. One exception is
// forced: where Dot returns NaN the kernel must return NaN, but not the
// same one — which operand's sign and payload an x86 add or multiply of
// two NaNs keeps depends on operand order, Go leaves that unspecified,
// and the compiled Dot itself orders its lanes differently.

var (
	kernelCols   = []int{1, 3, 4, 5, 15, 16, 17, 64, 200, 512, 1000, 1024}
	kernelCounts = []int{0, 1, 3, 4, 5, 8, 13, 515}
)

// kernelRows is the height of the test matrices: enough for 515
// distinct ascending indices.
const kernelRows = 600

// specials are the operands a lane-wise kernel could treat differently
// from the scalar loop: infinities, NaN, signed zero, denormals, and
// magnitudes whose product or partial sum overflows float32.
var specials = []float32{
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	float32(math.Copysign(0, -1)), 0,
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40,
	math.MaxFloat32, -math.MaxFloat32, 3e30, -3e30, 1e-30,
}

// fillKernel writes finite values into v and, when special, replaces
// about one element in eight with a draw from specials.
func fillKernel(r *xrand.RNG, v []float32, special bool) {
	for i := range v {
		v[i] = float32(r.NormFloat64())
		if special && r.Intn(8) == 0 {
			v[i] = specials[r.Intn(len(specials))]
		}
	}
}

// viewAt returns a rows×cols matrix and a cols-long vector whose
// storage starts off floats into a fresh allocation (so for odd off it
// is 4- but not 16-byte aligned, as a shard's slice of W can be) and
// whose capacity ends with the data, so slicing past it panics.
func viewAt(r *xrand.RNG, rows, cols, off int, special bool) (*Matrix, []float32) {
	n := rows * cols
	back := make([]float32, off+n)
	m := &Matrix{Rows: rows, Cols: cols, Data: back[off : off+n : off+n]}
	fillKernel(r, m.Data, special)
	xb := make([]float32, off+cols)
	x := xb[off : off+cols : off+cols]
	fillKernel(r, x, special)
	return m, x
}

// indexLists returns n-long row lists over a matrix of the given
// height, by name: the shapes a candidate list or a caller could take.
func indexLists(r *xrand.RNG, height, n int) map[string][]int {
	asc := make([]int, n)
	for j := range asc {
		asc[j] = j * height / max(n, 1)
	}
	desc := make([]int, n)
	tail := make([]int, n)
	for j := range asc {
		desc[j] = asc[n-1-j]
		tail[j] = height - n + j // ascending, ending on the matrix's last row
	}
	rep := make([]int, n)
	last := make([]int, n)
	random := make([]int, n)
	for j := range rep {
		rep[j] = asc[j/3*3] // runs of three equal indices
		last[j] = height - 1
		random[j] = r.Intn(height)
	}
	return map[string][]int{
		"ascending": asc, "descending": desc, "to-last-row": tail,
		"repeated": rep, "all-last-row": last, "random": random,
	}
}

// sameBits is Float32bits equality, with every NaN equal to every NaN.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// checkRows fails unless MatVecRows(rows) equals the Dot loop bit for
// bit.
func checkRows(t testing.TB, m *Matrix, rows []int, x []float32, what string) {
	t.Helper()
	got := make([]float32, len(rows))
	m.MatVecRows(got, rows, x)
	for j, r := range rows {
		if want := Dot(m.Row(r), x); !sameBits(got[j], want) {
			t.Fatalf("%s: dst[%d] (row %d) = %v (%#08x), Dot = %v (%#08x)",
				what, j, r, got[j], math.Float32bits(got[j]), want, math.Float32bits(want))
		}
	}
}

func TestMatVecRowsBitIdenticalToDot(t *testing.T) {
	r := xrand.New(19)
	for _, cols := range kernelCols {
		for _, off := range []int{0, 1, 3} {
			for _, special := range []bool{false, true} {
				m, x := viewAt(r, kernelRows, cols, off, special)
				for _, n := range kernelCounts {
					for name, rows := range indexLists(r, kernelRows, n) {
						checkRows(t, m, rows, x,
							fmt.Sprintf("cols=%d off=%d special=%v n=%d %s", cols, off, special, n, name))
					}
				}
			}
		}
	}
}

func TestMatVecBitIdenticalToDot(t *testing.T) {
	r := xrand.New(23)
	for _, cols := range kernelCols {
		for _, rows := range kernelCounts {
			for _, off := range []int{0, 1} {
				for _, special := range []bool{false, true} {
					m, x := viewAt(r, rows, cols, off, special)
					got := make([]float32, rows)
					m.MatVec(got, x)
					for i := range got {
						if want := Dot(m.Row(i), x); !sameBits(got[i], want) {
							t.Fatalf("cols=%d rows=%d off=%d special=%v: dst[%d] = %v, Dot = %v",
								cols, rows, off, special, i, got[i], want)
						}
					}
				}
			}
		}
	}
}

// TestMatVecRowsPanics: the assembly trusts its pointers, so every bad
// shape or index has to stop in Go first.
func TestMatVecRowsPanics(t *testing.T) {
	m := NewMatrix(8, 16)
	for name, f := range map[string]func(){
		"short x":      func() { m.MatVecRows(make([]float32, 4), []int{0, 1, 2, 3}, make([]float32, 15)) },
		"long x":       func() { m.MatVecRows(make([]float32, 4), []int{0, 1, 2, 3}, make([]float32, 17)) },
		"dst mismatch": func() { m.MatVecRows(make([]float32, 3), []int{0, 1, 2, 3}, make([]float32, 16)) },
		"row too high": func() { m.MatVecRows(make([]float32, 4), []int{0, 1, 2, 8}, make([]float32, 16)) },
		"row negative": func() { m.MatVecRows(make([]float32, 4), []int{0, -1, 2, 3}, make([]float32, 16)) },
		"bad look-ahead": func() {
			m.MatVecRows(make([]float32, 5), []int{0, 1, 2, 3, 9}, make([]float32, 16))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// FuzzMatVecRows lets the fuzzer pick the shape, the alignment, the
// index list and every operand bit pattern (raw holds float32 bits, so
// any NaN payload or denormal can occur).
func FuzzMatVecRows(f *testing.F) {
	r := xrand.New(29)
	for _, cols := range kernelCols {
		for _, n := range kernelCounts {
			raw := make([]byte, 64)
			for i := range raw {
				raw[i] = byte(r.Intn(256))
			}
			f.Add(uint16(cols), uint16(n), uint8(n%4), uint64(cols*n), raw)
		}
	}
	f.Fuzz(func(t *testing.T, cols, n uint16, off uint8, seed uint64, raw []byte) {
		c, cnt, height := int(cols)%1100+1, int(n)%600, 37
		rng := xrand.New(seed)
		m, x := viewAt(rng, height, c, int(off)%4, seed%2 == 1)
		// Scatter the fuzzer's bit patterns over both operands.
		for len(raw) >= 4 {
			v := math.Float32frombits(binary.LittleEndian.Uint32(raw))
			m.Data[rng.Intn(len(m.Data))] = v
			x[rng.Intn(len(x))] = v
			raw = raw[4:]
		}
		rows := make([]int, cnt)
		for j := range rows {
			rows[j] = rng.Intn(height)
		}
		checkRows(t, m, rows, x, fmt.Sprintf("cols=%d n=%d off=%d seed=%d", c, cnt, off%4, seed))
	})
}
