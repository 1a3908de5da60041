package projection

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"enmc/internal/tensor"
	"enmc/internal/xrand"
)

func TestShapeAndScale(t *testing.T) {
	p := New(16, 64, 1)
	if p.K != 16 || p.D != 64 {
		t.Fatalf("shape %dx%d", p.K, p.D)
	}
	want := math.Sqrt(3.0 / 16)
	if math.Abs(float64(p.Scale)-want) > 1e-6 {
		t.Fatalf("scale %v, want %v", p.Scale, want)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	a, b := New(8, 32, 42), New(8, 32, 42)
	for i := 0; i < 8; i++ {
		for j := 0; j < 32; j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatal("same seed produced different matrices")
			}
		}
	}
	c := New(8, 32, 43)
	diff := 0
	for i := 0; i < 8; i++ {
		for j := 0; j < 32; j++ {
			if a.At(i, j) != c.At(i, j) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical matrices")
	}
}

// drawTrits re-draws New's entries from xrand independently of the
// package: one r.Intn(6) per entry in row-major order, 0 → +1,
// 1 → -1, else 0. Artifacts store only the seed, so a change to New's
// draw order must fail the tests built on this.
func drawTrits(k, d int, seed uint64) []int8 {
	r := xrand.New(seed)
	t := make([]int8, k*d)
	for i := range t {
		switch r.Intn(6) {
		case 0:
			t[i] = 1
		case 1:
			t[i] = -1
		}
	}
	return t
}

// scalarApply is the trit-at-a-time definition of P·h: ascending j,
// add on +1, subtract on -1, one scale per output.
func scalarApply(trits []int8, k, d int, h []float32) []float32 {
	scale := float32(math.Sqrt(3 / float64(k)))
	out := make([]float32, k)
	for i := range out {
		var acc float32
		for j := 0; j < d; j++ {
			switch trits[i*d+j] {
			case 1:
				acc += h[j]
			case -1:
				acc -= h[j]
			}
		}
		out[i] = acc * scale
	}
	return out
}

func TestEntriesAreTernary(t *testing.T) {
	for _, sh := range [][2]int{{10, 50}, {3, 7}, {16, 16}} {
		k, d := sh[0], sh[1]
		p := New(k, d, 7)
		trits := drawTrits(k, d, 7)
		for i := 0; i < k; i++ {
			for j := 0; j < d; j++ {
				if got, want := p.At(i, j), int(trits[i*d+j]); got != want {
					t.Fatalf("%dx%d entry (%d,%d) = %d, re-drawn %d", k, d, i, j, got, want)
				}
			}
		}
	}
}

func TestSparsityNearOneThird(t *testing.T) {
	p := New(64, 256, 3)
	nz := p.NonZeroFraction()
	if nz < 0.28 || nz > 0.39 {
		t.Fatalf("non-zero fraction %v, want ≈ 1/3", nz)
	}
}

func TestApplyMatchesDense(t *testing.T) {
	p := New(12, 40, 9)
	r := xrand.New(1)
	h := make([]float32, 40)
	for i := range h {
		h[i] = r.NormFloat32()
	}
	got := p.ApplyNew(h)

	// Dense reference.
	dense := tensor.NewMatrix(12, 40)
	for i := 0; i < 12; i++ {
		for j := 0; j < 40; j++ {
			dense.Set(i, j, float32(p.At(i, j))*p.Scale)
		}
	}
	want := make([]float32, 12)
	dense.MatVec(want, h)
	for i := range got {
		if math.Abs(float64(got[i]-want[i])) > 1e-4 {
			t.Fatalf("Apply mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// specials are the values whose arithmetic differs between acc + (-x)
// and acc - x (NaNs: the sign of the result) or that make a row NaN on
// their own (Inf - Inf), plus the signed zeros.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000), // quiet NaNs of both signs
	math.Float32frombits(0x7f800001), math.Float32frombits(0xff812345), // signalling NaNs with payloads
	1.5,
}

// TestApplyBitIdenticalToScalar pins Apply to the trit-at-a-time
// definition with Float32bits equality: over d % 4 ∈ {0, 1, 2, 3},
// all-zero rows and k = d, on normal inputs, all-±0 inputs, and every
// ordered pair of special values placed under one +1 and one -1 entry
// of the same row (so +Inf under both is Inf - Inf, and a NaN meets
// each sign).
func TestApplyBitIdenticalToScalar(t *testing.T) {
	r := xrand.New(13)
	var shapes [][2]int
	for _, k := range []int{1, 3, 8} {
		for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 33, 130} {
			shapes = append(shapes, [2]int{k, d})
		}
	}
	for _, n := range []int{4, 17, 64} {
		shapes = append(shapes, [2]int{n, n})
	}
	zeroRows, mixedShapes := 0, 0
	for _, sh := range shapes {
		k, d := sh[0], sh[1]
		seed := uint64(k*1000 + d)
		p := New(k, d, seed)
		trits := drawTrits(k, d, seed)

		var hs [][]float32
		normal := func() []float32 {
			h := make([]float32, d)
			for i := range h {
				h[i] = r.NormFloat32()
			}
			return h
		}
		hs = append(hs, normal(), normal())
		for _, z := range specials[:2] {
			h := make([]float32, d)
			for i := range h {
				h[i] = z
			}
			hs = append(hs, h)
		}
		plus, minus := -1, -1
		for i := 0; i < k; i++ {
			row := trits[i*d : (i+1)*d]
			nz := 0
			for _, v := range row {
				if v != 0 {
					nz++
				}
			}
			if nz == 0 {
				zeroRows++
			}
			pc, mc := -1, -1
			for j, v := range row {
				if v == 1 && pc < 0 {
					pc = j
				}
				if v == -1 && mc < 0 {
					mc = j
				}
			}
			if pc >= 0 && mc >= 0 && plus < 0 {
				plus, minus = pc, mc
				mixedShapes++
			}
		}
		if plus >= 0 {
			for _, a := range specials {
				for _, b := range specials {
					h := normal()
					h[plus], h[minus] = a, b
					hs = append(hs, h)
				}
			}
		}

		got := make([]float32, k)
		for _, h := range hs {
			p.Apply(got, h)
			want := scalarApply(trits, k, d, h)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%dx%d row %d, h=%v: Apply %v (%#x) != scalar %v (%#x)",
						k, d, i, h, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
		}
	}
	if zeroRows == 0 || mixedShapes == 0 {
		t.Fatalf("shapes cover %d all-zero rows and %d shapes with a mixed-sign row; want both > 0", zeroRows, mixedShapes)
	}
}

// FuzzApply checks Apply against the scalar definition, bit for bit,
// on arbitrary float32 bit patterns (NaN payloads included) at small
// shapes.
func FuzzApply(f *testing.F) {
	f.Add(uint8(3), uint8(7), uint64(1), []byte{0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0xff, 0, 0, 0x80, 0x7f})
	f.Add(uint8(8), uint8(33), uint64(2), []byte{0, 0, 0, 0x80, 1, 0, 0x80, 0xff, 0, 0, 0xc0, 0x3f})
	f.Add(uint8(16), uint8(16), uint64(3), []byte{})
	f.Fuzz(func(t *testing.T, k8, d8 uint8, seed uint64, data []byte) {
		k, d := 1+int(k8%16), 1+int(d8%80)
		h := make([]float32, d)
		for j := 0; j < d && 4*j+4 <= len(data); j++ {
			h[j] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*j:]))
		}
		got := New(k, d, seed).ApplyNew(h)
		want := scalarApply(drawTrits(k, d, seed), k, d, h)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%dx%d seed %d row %d: Apply %#x != scalar %#x",
					k, d, seed, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	})
}

func BenchmarkApply(b *testing.B) {
	for _, sh := range [][2]int{{256, 1024}, {128, 512}} {
		k, d := sh[0], sh[1]
		b.Run(fmt.Sprintf("%dx%d", k, d), func(b *testing.B) {
			p := New(k, d, 1)
			r := xrand.New(2)
			h := make([]float32, d)
			for i := range h {
				h[i] = r.NormFloat32()
			}
			dst := make([]float32, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Apply(dst, h)
			}
		})
	}
}

func TestApplyZeroAlloc(t *testing.T) {
	p := New(32, 128, 5)
	h := make([]float32, 128)
	dst := make([]float32, 32)
	allocs := testing.AllocsPerRun(20, func() { p.Apply(dst, h) })
	h[3] = float32(math.NaN())
	allocs += testing.AllocsPerRun(20, func() { p.Apply(dst, h) })
	if allocs != 0 {
		t.Fatalf("Apply allocates %v/op", allocs)
	}
}

func TestApplyShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(4, 8, 1).Apply(make([]float32, 4), make([]float32, 7))
}

// TestNormPreservation checks the Johnson–Lindenstrauss property the
// screening method relies on: projected squared norms concentrate
// around the originals.
func TestNormPreservation(t *testing.T) {
	const d, k = 512, 128
	p := New(k, d, 11)
	r := xrand.New(2)
	var ratioSum float64
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		h := make([]float32, d)
		for i := range h {
			h[i] = r.NormFloat32()
		}
		ph := p.ApplyNew(h)
		ratioSum += math.Pow(tensor.Norm2(ph)/tensor.Norm2(h), 2)
	}
	mean := ratioSum / trials
	if mean < 0.85 || mean > 1.15 {
		t.Fatalf("JL norm ratio %v, want ≈ 1", mean)
	}
}

func TestBytesIsQuarterByteSized(t *testing.T) {
	p := New(10, 10, 1)
	if p.Bytes() != 25 {
		t.Fatalf("Bytes = %d, want 25 (100 trits at 2 bits)", p.Bytes())
	}
}

func TestInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 5, 1)
}
