package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"enmc/internal/xrand"
)

func TestMatVec(t *testing.T) {
	m := FromRows([][]float32{
		{1, 2, 3},
		{4, 5, 6},
	})
	x := []float32{1, 0, -1}
	dst := make([]float32, 2)
	m.MatVec(dst, x)
	if dst[0] != -2 || dst[1] != -2 {
		t.Fatalf("MatVec = %v, want [-2 -2]", dst)
	}
}

func TestMatVecShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	m := NewMatrix(2, 3)
	m.MatVec(make([]float32, 2), make([]float32, 2))
}

func TestMatVecRowsMatchesFull(t *testing.T) {
	r := xrand.New(1)
	m := randMatrix(r, 20, 8)
	x := randVec(r, 8)
	full := make([]float32, 20)
	m.MatVec(full, x)
	rows := []int{3, 0, 19, 7}
	sub := make([]float32, len(rows))
	m.MatVecRows(sub, rows, x)
	for j, ri := range rows {
		if sub[j] != full[ri] {
			t.Fatalf("row %d: got %v want %v", ri, sub[j], full[ri])
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := xrand.New(2)
	a := randMatrix(r, 5, 5)
	id := NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	got := MatMul(a, id)
	for i := range a.Data {
		if got.Data[i] != a.Data[i] {
			t.Fatal("A·I != A")
		}
	}
}

func TestMatMulAgainstMatVec(t *testing.T) {
	r := xrand.New(3)
	a := randMatrix(r, 7, 4)
	b := randMatrix(r, 4, 1)
	prod := MatMul(a, b)
	want := make([]float32, 7)
	a.MatVec(want, b.Data)
	for i := 0; i < 7; i++ {
		if math.Abs(float64(prod.At(i, 0)-want[i])) > 1e-5 {
			t.Fatalf("MatMul vs MatVec mismatch at %d", i)
		}
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float32{{1, 2}, {3, 4}, {5, 6}})
	tt := m.T()
	if tt.Rows != 2 || tt.Cols != 3 {
		t.Fatalf("T shape %dx%d", tt.Rows, tt.Cols)
	}
	if tt.At(0, 2) != 5 || tt.At(1, 0) != 2 {
		t.Fatal("transpose values wrong")
	}
	back := tt.T()
	for i := range m.Data {
		if back.Data[i] != m.Data[i] {
			t.Fatal("double transpose not identity")
		}
	}
}

func TestDotMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(64)
		a, b := randVec(r, n), randVec(r, n)
		var want float64
		for i := range a {
			want += float64(a[i]) * float64(b[i])
		}
		return math.Abs(float64(Dot(a, b))-want) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAxpyScaleAddSub(t *testing.T) {
	dst := []float32{1, 2, 3}
	Axpy(dst, 2, []float32{1, 1, 1})
	if dst[0] != 3 || dst[2] != 5 {
		t.Fatalf("Axpy = %v", dst)
	}
	Scale(dst, 0.5)
	if dst[0] != 1.5 {
		t.Fatalf("Scale = %v", dst)
	}
	out := make([]float32, 3)
	Add(out, []float32{1, 2, 3}, []float32{4, 5, 6})
	if out[1] != 7 {
		t.Fatalf("Add = %v", out)
	}
	Sub(out, []float32{1, 2, 3}, []float32{4, 5, 6})
	if out[1] != -3 {
		t.Fatalf("Sub = %v", out)
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float32{1, 5, 5, 2}) != 1 {
		t.Fatal("ArgMax tie should break low")
	}
	if ArgMax([]float32{-3, -1, -2}) != 1 {
		t.Fatal("ArgMax negative values")
	}
}

func TestNorm2AndMaxAbs(t *testing.T) {
	if Norm2([]float32{3, 4}) != 5 {
		t.Fatal("Norm2(3,4) != 5")
	}
	if MaxAbs([]float32{-7, 3}) != 7 {
		t.Fatal("MaxAbs")
	}
	if MaxAbs(nil) != 0 {
		t.Fatal("MaxAbs(nil)")
	}
}

func TestMSE(t *testing.T) {
	got := MSE([]float32{1, 2}, []float32{2, 4})
	if math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("MSE = %v, want 2.5", got)
	}
	if MSE(nil, nil) != 0 {
		t.Fatal("MSE empty")
	}
}

func TestTopKBasic(t *testing.T) {
	x := []float32{0.1, 9, 3, 7, 7, -2}
	got := TopK(x, 3)
	want := []int{1, 3, 4}
	if len(got) != 3 {
		t.Fatalf("TopK len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopK = %v, want %v", got, want)
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	if TopK(nil, 3) != nil {
		t.Fatal("TopK(nil)")
	}
	if TopK([]float32{1, 2}, 0) != nil {
		t.Fatal("TopK k=0")
	}
	got := TopK([]float32{1, 2}, 10)
	if len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("TopK overflow k: %v", got)
	}
}

func TestTopKMatchesSort(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(200)
		k := 1 + r.Intn(n)
		x := randVec(r, n)
		got := TopK(x, k)
		if len(got) != k {
			return false
		}
		// Every returned value must be >= every non-returned value.
		in := make(map[int]bool, k)
		var minIn float32 = math.MaxFloat32
		for _, i := range got {
			in[i] = true
			if x[i] < minIn {
				minIn = x[i]
			}
		}
		for i, v := range x {
			if !in[i] && v > minIn {
				return false
			}
		}
		// Descending order.
		for j := 1; j < k; j++ {
			if x[got[j]] > x[got[j-1]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func randMatrix(r *xrand.RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat32()
	}
	return m
}

func randVec(r *xrand.RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = r.NormFloat32()
	}
	return v
}
