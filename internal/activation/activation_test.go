package activation

import (
	"math"
	"testing"

	"enmc/internal/xrand"
)

func TestSoftmaxSumsToOne(t *testing.T) {
	r := xrand.New(1)
	z := make([]float32, 100)
	for i := range z {
		z[i] = r.NormFloat32() * 5
	}
	p := make([]float32, len(z))
	Softmax(p, z)
	var sum float64
	for _, v := range p {
		if v < 0 {
			t.Fatalf("negative probability %v", v)
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("softmax sum %v", sum)
	}
}

func TestSoftmaxMonotone(t *testing.T) {
	z := []float32{1, 3, 2}
	p := make([]float32, 3)
	Softmax(p, z)
	if !(p[1] > p[2] && p[2] > p[0]) {
		t.Fatalf("softmax order violated: %v", p)
	}
}

func TestSoftmaxStableUnderShift(t *testing.T) {
	z := []float32{1000, 1001, 999}
	p := make([]float32, 3)
	Softmax(p, z)
	for _, v := range p {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax overflowed: %v", p)
		}
	}
	zs := []float32{0, 1, -1}
	ps := make([]float32, 3)
	Softmax(ps, zs)
	for i := range p {
		if math.Abs(float64(p[i]-ps[i])) > 1e-6 {
			t.Fatalf("softmax not shift-invariant: %v vs %v", p, ps)
		}
	}
}

func TestSoftmaxAliasesInPlace(t *testing.T) {
	z := []float32{0, 1, 2}
	Softmax(z, z)
	var sum float64
	for _, v := range z {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatal("in-place softmax broken")
	}
}

func TestSoftmaxEmpty(t *testing.T) {
	Softmax(nil, nil) // must not panic
}

func TestLogSumExp(t *testing.T) {
	got := LogSumExp([]float32{0, 0})
	if math.Abs(got-math.Log(2)) > 1e-9 {
		t.Fatalf("LogSumExp = %v, want ln 2", got)
	}
	// Huge values must not overflow.
	got = LogSumExp([]float32{1e4, 1e4})
	if math.Abs(got-(1e4+math.Log(2))) > 1e-3 {
		t.Fatalf("LogSumExp big = %v", got)
	}
	if !math.IsInf(LogSumExp(nil), -1) {
		t.Fatal("LogSumExp(empty) should be -inf")
	}
}

func TestTaylorExpAccurate(t *testing.T) {
	for _, x := range []float32{0, -0.1, -0.5, -1, 0.3, -5, -20, 2.7} {
		got := float64(TaylorExp(x))
		want := math.Exp(float64(x))
		if math.Abs(got-want)/want > 0.02 {
			t.Fatalf("TaylorExp(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestSoftmaxSFUCloseToExact(t *testing.T) {
	r := xrand.New(2)
	z := make([]float32, 64)
	for i := range z {
		z[i] = r.NormFloat32()
	}
	exact := make([]float32, 64)
	Softmax(exact, z)
	sfu := make([]float32, 64)
	SoftmaxSFU(sfu, z)
	var sum float64
	for i := range sfu {
		sum += float64(sfu[i])
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Fatalf("SFU softmax sum %v", sum)
	}
	// Argmax must agree — that's what candidate selection needs.
	bestExact, bestSFU := 0, 0
	for i := range z {
		if exact[i] > exact[bestExact] {
			bestExact = i
		}
		if sfu[i] > sfu[bestSFU] {
			bestSFU = i
		}
	}
	if bestExact != bestSFU {
		t.Fatal("SFU softmax changed argmax")
	}
}

func TestSoftmaxSFUDegenerate(t *testing.T) {
	// All arguments far below zero clamp to 0 except the max; the SFU
	// must still emit a distribution.
	z := []float32{-100, 0, -100}
	p := make([]float32, 3)
	SoftmaxSFU(p, z)
	var sum float64
	for _, v := range p {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("degenerate SFU sum = %v (%v)", sum, p)
	}
}
