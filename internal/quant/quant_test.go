package quant

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"enmc/internal/tensor"
	"enmc/internal/xrand"
)

func TestMaxLevel(t *testing.T) {
	cases := map[Bits]int32{INT2: 1, INT4: 7, INT8: 127}
	for b, want := range cases {
		if got := b.MaxLevel(); got != want {
			t.Fatalf("%v MaxLevel = %d, want %d", b, got, want)
		}
	}
}

func TestMaxLevelPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Bits(3).MaxLevel()
}

func TestVectorRoundTripError(t *testing.T) {
	r := xrand.New(1)
	x := make([]float32, 256)
	for i := range x {
		x[i] = r.NormFloat32()
	}
	for _, bits := range []Bits{INT4, INT8} {
		v := QuantizeVector(x, bits)
		back := v.Dequantize()
		// Max error is half a quantization step.
		maxErr := float64(v.Scale) * 0.5001
		for i := range x {
			if math.Abs(float64(x[i]-back[i])) > maxErr {
				t.Fatalf("%v round-trip error %v > %v", bits, x[i]-back[i], maxErr)
			}
		}
	}
}

func TestZeroVector(t *testing.T) {
	v := QuantizeVector(make([]float32, 8), INT4)
	if v.Scale != 1 {
		t.Fatalf("zero-vector scale = %v", v.Scale)
	}
	for _, q := range v.Q {
		if q != 0 {
			t.Fatal("zero vector quantized non-zero")
		}
	}
}

func TestMatVecMatchesDequantizedFloat(t *testing.T) {
	r := xrand.New(2)
	m := tensor.NewMatrix(12, 32)
	for i := range m.Data {
		m.Data[i] = r.NormFloat32()
	}
	x := make([]float32, 32)
	for i := range x {
		x[i] = r.NormFloat32()
	}
	qm := QuantizeMatrix(m, INT8)
	qx := QuantizeVector(x, INT8)

	got := make([]float32, 12)
	qm.MatVec(got, qx)

	want := make([]float32, 12)
	dequantize(qm).MatVec(want, qx.Dequantize())
	for i := range got {
		if math.Abs(float64(got[i]-want[i])) > 1e-3 {
			t.Fatalf("integer MatVec != dequantized float at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestINT8ApproximatesFloat(t *testing.T) {
	r := xrand.New(3)
	m := tensor.NewMatrix(50, 64)
	for i := range m.Data {
		m.Data[i] = r.NormFloat32()
	}
	x := make([]float32, 64)
	for i := range x {
		x[i] = r.NormFloat32()
	}
	want := make([]float32, 50)
	m.MatVec(want, x)
	got := make([]float32, 50)
	QuantizeMatrix(m, INT8).MatVec(got, QuantizeVector(x, INT8))
	if tensor.MSE(got, want) > 0.05 {
		t.Fatalf("INT8 GEMV too lossy: MSE %v", tensor.MSE(got, want))
	}
}

func TestPerRowBeatsPerTensorOnSkewedRows(t *testing.T) {
	r := xrand.New(4)
	m := tensor.NewMatrix(20, 32)
	for i := 0; i < m.Rows; i++ {
		scale := float32(1)
		if i%2 == 0 {
			scale = 100 // half the rows live on a much larger scale
		}
		for j := range m.Row(i) {
			m.Row(i)[j] = r.NormFloat32() * scale
		}
	}
	perRow := tensor.MSE(dequantize(QuantizeMatrix(m, INT4)).Data, m.Data)
	perTensor := tensor.MSE(dequantize(QuantizeMatrixPerTensor(m, INT4)).Data, m.Data)
	if perRow >= perTensor {
		t.Fatalf("per-row MSE %v not better than per-tensor %v", perRow, perTensor)
	}
}

func TestDotInt32MatchesMatVec(t *testing.T) {
	r := xrand.New(5)
	m := tensor.NewMatrix(4, 16)
	for i := range m.Data {
		m.Data[i] = r.NormFloat32()
	}
	qm := QuantizeMatrix(m, INT4)
	x := make([]float32, 16)
	for i := range x {
		x[i] = r.NormFloat32()
	}
	qx := QuantizeVector(x, INT4)
	dst := make([]float32, 4)
	qm.MatVec(dst, qx)
	for i := 0; i < 4; i++ {
		want := float32(dotInt32(qm, i, qx.Q)) * qm.Scales[i] * qx.Scale
		if dst[i] != want {
			t.Fatalf("row %d: MatVec %v != dotInt32 path %v", i, dst[i], want)
		}
	}
}

func TestMatrixBytes(t *testing.T) {
	m := tensor.NewMatrix(10, 10)
	if QuantizeMatrix(m, INT4).Bytes() != 50 {
		t.Fatal("INT4 bytes")
	}
	if QuantizeMatrix(m, INT8).Bytes() != 100 {
		t.Fatal("INT8 bytes")
	}
	if QuantizeMatrix(m, INT2).Bytes() != 25 {
		t.Fatal("INT2 bytes")
	}
}

func TestClampSaturates(t *testing.T) {
	v := QuantizeVector([]float32{1000, -1000, 0.001}, INT4)
	if v.Q[0] != 7 || v.Q[1] != -7 {
		t.Fatalf("saturation failed: %v", v.Q)
	}
}

// TestNibbleMatrixHasNoQ: an INT2/INT4 matrix exists only as the nibble
// image — RowBytes(Cols) bytes per row, Q nil — and an INT8 one only as
// Q, whichever quantizer built it.
func TestNibbleMatrixHasNoQ(t *testing.T) {
	m := tensor.NewMatrix(5, 70)
	for _, bits := range []Bits{INT2, INT4, INT8} {
		for _, qm := range []*Matrix{QuantizeMatrix(m, bits), QuantizeMatrixPerTensor(m, bits)} {
			if bits == INT8 {
				if len(qm.Q) != 5*70 || qm.image != nil {
					t.Fatalf("INT8: len(Q) = %d, image %d bytes", len(qm.Q), len(qm.image))
				}
				continue
			}
			if qm.Q != nil || len(qm.image) != 5*RowBytes(70) {
				t.Fatalf("%v: Q %v, image %d bytes, want nil and %d", bits, qm.Q, len(qm.image), 5*RowBytes(70))
			}
		}
	}
	if RowBytes(1) != 32 || RowBytes(64) != 32 || RowBytes(65) != 64 || RowBytes(375) != 192 {
		t.Fatal("RowBytes does not pad rows to whole 64-column chunks of 32 bytes")
	}
}

// TestPayloadRoundTrip: FromPayload accepts what Payload returns at
// every precision and rebuilds the same weights; RowInto decodes them
// to the levels the quantizer chose.
func TestPayloadRoundTrip(t *testing.T) {
	r := xrand.New(12)
	w := tensor.NewMatrix(9, 130)
	for i := range w.Data {
		w.Data[i] = r.NormFloat32()
	}
	for _, bits := range []Bits{INT2, INT4, INT8} {
		qm := QuantizeMatrix(w, bits)
		p := qm.Payload()
		if len(p) != PayloadBytes(bits, 9, 130) {
			t.Fatalf("%v: payload %d bytes, PayloadBytes %d", bits, len(p), PayloadBytes(bits, 9, 130))
		}
		back, err := FromPayload(bits, 9, 130, qm.Scales, append([]byte(nil), p...))
		if err != nil {
			t.Fatalf("%v: %v", bits, err)
		}
		if !bytes.Equal(back.Payload(), p) {
			t.Fatalf("%v: payload changed across FromPayload", bits)
		}
		levels, _ := levelOracle(w, bits, false)
		got := make([]int8, 130)
		for i := range levels {
			back.RowInto(got, i)
			if !slices.Equal(got, levels[i]) {
				t.Fatalf("%v row %d: RowInto %v, want %v", bits, i, got, levels[i])
			}
		}
	}
}

// TestFromPayloadRejects: a nibble outside the precision's levels, a
// non-zero pad nibble and a block of the wrong length are all errors.
func TestFromPayloadRejects(t *testing.T) {
	qm, _ := randQuantized(xrand.New(13), 3, 70, INT2)
	for _, c := range []struct {
		what string
		edit func(p []byte) []byte
	}{
		{"INT2 level 2", func(p []byte) []byte { p[5] = p[5]&0xf0 | 10; return p }},
		{"level −8", func(p []byte) []byte { p[RowBytes(70)+1] &= 0xf0; return p }},
		{"pad nibble", func(p []byte) []byte { p[2*RowBytes(70)+chunkBytes+6] |= 8; return p }}, // column 70
		{"short block", func(p []byte) []byte { return p[:len(p)-1] }},
	} {
		p := c.edit(append([]byte(nil), qm.Payload()...))
		if _, err := FromPayload(INT2, 3, 70, qm.Scales, p); err == nil {
			t.Fatalf("%s accepted", c.what)
		}
	}
}
