package core

import "enmc/internal/quant"

// OpCount tallies the work of one inference: multiply-accumulate
// operations (by precision) and the bytes of weight data that must be
// fetched. Weight traffic dominates at extreme category counts, which
// is the premise of the whole paper (Fig. 5).
type OpCount struct {
	FP32MACs float64 // full-precision multiply-accumulates
	IntMACs  float64 // fixed-point multiply-accumulates
	AddOps   float64 // plain additions (projection, bias, merge)
	SFUOps   float64 // special-function evaluations (exp/sigmoid)
	Bytes    float64 // weight + parameter bytes streamed from memory
}

// Add accumulates other into c.
func (c *OpCount) Add(other OpCount) {
	c.FP32MACs += other.FP32MACs
	c.IntMACs += other.IntMACs
	c.AddOps += other.AddOps
	c.SFUOps += other.SFUOps
	c.Bytes += other.Bytes
}

// ScaleBy multiplies all tallies by n (e.g. batch size).
func (c OpCount) ScaleBy(n float64) OpCount {
	return OpCount{
		FP32MACs: c.FP32MACs * n,
		IntMACs:  c.IntMACs * n,
		AddOps:   c.AddOps * n,
		SFUOps:   c.SFUOps * n,
		Bytes:    c.Bytes * n,
	}
}

// TotalOps returns all arithmetic operations (each MAC counted as 2
// FLOPs-equivalent, matching roofline convention).
func (c OpCount) TotalOps() float64 {
	return 2*(c.FP32MACs+c.IntMACs) + c.AddOps + c.SFUOps
}

// Intensity returns operations per byte, the roofline x-axis.
func (c OpCount) Intensity() float64 {
	if c.Bytes == 0 {
		return 0
	}
	return c.TotalOps() / c.Bytes
}

// FullClassificationCost is the exact layer: l·d FP32 MACs, softmax
// over l outputs, and the full W + b stream.
func FullClassificationCost(l, d int) OpCount {
	return OpCount{
		FP32MACs: float64(l) * float64(d),
		AddOps:   float64(l), // bias
		SFUOps:   float64(l), // softmax exponentials
		Bytes:    float64(l)*float64(d)*4 + float64(l)*4,
	}
}

// ScreeningCost is the approximate phase: the ternary projection
// (k·d/3 expected non-zero adds), l·k fixed-point MACs, and the
// quantized W̃ stream plus scales/bias. The projection matrix itself
// is tiny (2-bit) and cached on-chip, so it contributes parameters
// once, not per inference; we charge its stream anyway to stay
// conservative.
func ScreeningCost(l, d, k int, bits quant.Bits) OpCount {
	return OpCount{
		IntMACs: float64(l) * float64(k),
		AddOps:  float64(k) * float64(d) / 3,
		Bytes: float64(l)*float64(k)*float64(bits)/8 + // quantized W̃
			float64(l)*8 + // per-row scale + bias
			float64(k)*float64(d)/4, // 2-bit P
	}
}

// CandidateCost is the exact recomputation of m candidates: m·d FP32
// MACs and m weight rows streamed.
func CandidateCost(m, d int) OpCount {
	return OpCount{
		FP32MACs: float64(m) * float64(d),
		AddOps:   float64(m),
		SFUOps:   float64(m),
		Bytes:    float64(m)*float64(d)*4 + float64(m)*4,
	}
}
