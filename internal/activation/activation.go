// Package activation implements the classification layer's output
// function — softmax, and its log-sum-exp — plus the Taylor
// approximation of exp the ENMC Executor's special-function unit uses
// (the paper approximates exp with a 4th-order Taylor expansion,
// Section 6.2).
package activation

import (
	"math"

	"enmc/internal/tensor"
)

// Softmax writes softmax(z) into dst with the standard max-shift for
// numerical stability. dst and z may alias.
func Softmax(dst, z []float32) {
	if len(dst) != len(z) {
		panic("activation: Softmax length mismatch")
	}
	if len(z) == 0 {
		return
	}
	m := z[tensor.ArgMax(z)]
	var sum float64
	for i, v := range z {
		e := math.Exp(float64(v - m))
		dst[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range dst {
		dst[i] *= inv
	}
}

// LogSumExp returns log(sum_i exp(z_i)) with the max-shift trick;
// it is the normalizer used by perplexity computations.
func LogSumExp(z []float32) float64 {
	if len(z) == 0 {
		return math.Inf(-1)
	}
	m := float64(z[tensor.ArgMax(z)])
	var sum float64
	for _, v := range z {
		sum += math.Exp(float64(v) - m)
	}
	return m + math.Log(sum)
}

const ln2 = 0.6931471805599453

// TaylorExp evaluates the Executor SFU's exp approximation: range
// reduction exp(x) = 2ⁿ · p(r) with n = round(x/ln2) and r ∈
// [-ln2/2, ln2/2], where p is the 4th-order Taylor expansion
// 1 + r + r²/2 + r³/6 + r⁴/24 (the polynomial core the paper cites;
// the reduction keeps the polynomial inside its accurate domain and
// the result monotone, as a hardware shift-and-polynomial unit does).
func TaylorExp(x float32) float32 {
	n := math.Round(float64(x) / ln2)
	r := float64(x) - n*ln2
	r2 := r * r
	p := 1 + r + r2/2 + r2*r/6 + r2*r2/24
	return float32(math.Ldexp(p, int(n)))
}

// SoftmaxSFU is Softmax computed the way the Executor hardware does:
// max-shift, SFU exponentials, then normalization. It exists so the
// quality experiments can include the hardware's approximation error.
func SoftmaxSFU(dst, z []float32) {
	if len(dst) != len(z) {
		panic("activation: SoftmaxSFU length mismatch")
	}
	if len(z) == 0 {
		return
	}
	m := z[tensor.ArgMax(z)]
	var sum float64
	for i, v := range z {
		e := TaylorExp(v - m)
		dst[i] = e
		sum += float64(e)
	}
	inv := float32(1 / sum)
	for i := range dst {
		dst[i] *= inv
	}
}
