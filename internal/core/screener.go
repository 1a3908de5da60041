package core

import (
	"fmt"
	"sync"

	"enmc/internal/projection"
	"enmc/internal/quant"
	"enmc/internal/tensor"
)

// Config describes a screening module (paper Eq. 3): z̃ = W̃·(P·h) + b̃
// with P ∈ sqrt(3/k)·{−1,0,1}^{k×d} and W̃ ∈ R^{l×k}, executed at a
// reduced fixed-point precision.
type Config struct {
	Categories int        // l: number of classes
	Hidden     int        // d: hidden dimension
	Reduced    int        // k: projected dimension (k ≪ d)
	Precision  quant.Bits // screening precision; ENMC hardware uses INT4
	PerTensor  bool       // per-tensor instead of per-row quantization scales (ablation)
	Seed       uint64     // seed for the projection matrix P
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.Categories <= 0 || c.Hidden <= 0 || c.Reduced <= 0 {
		return fmt.Errorf("core: non-positive dimensions l=%d d=%d k=%d", c.Categories, c.Hidden, c.Reduced)
	}
	if c.Reduced > c.Hidden {
		return fmt.Errorf("core: reduced dimension k=%d exceeds hidden d=%d", c.Reduced, c.Hidden)
	}
	switch c.Precision {
	case quant.INT2, quant.INT4, quant.INT8:
	default:
		return fmt.Errorf("core: unsupported screening precision %d", c.Precision)
	}
	return nil
}

// Screener holds the trained screening module. Wt and Bt are the
// float32 master parameters (what SGD updates); QW is the quantized
// deployment copy the hardware streams. A screener read from an
// artifact (ReadScreener) is inference-only: it carries QW and Bt but
// no Wt, so Freeze and ScreenFloat, which read the master weights,
// belong to the training side.
type Screener struct {
	Cfg Config
	P   *projection.Sparse
	Wt  *tensor.Matrix // l×k float master weights; nil when read from an artifact
	Bt  []float32      // l float bias
	QW  *quant.Matrix  // quantized W̃ used at inference
}

// newScreener allocates an untrained screener with zero weights.
func newScreener(cfg Config) (*Screener, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Screener{
		Cfg: cfg,
		P:   projection.New(cfg.Reduced, cfg.Hidden, cfg.Seed),
		Wt:  tensor.NewMatrix(cfg.Categories, cfg.Reduced),
		Bt:  make([]float32, cfg.Categories),
	}, nil
}

// Freeze (re)quantizes the master weights into the deployment copy.
// Call after training or after mutating Wt directly.
func (s *Screener) Freeze() {
	s.QW = s.quantized()
}

// quantized builds the deployment copy from the master weights
// without installing it — the receiver is left untouched, so
// read-only paths (serialization of an unfrozen screener) can get
// exactly what Freeze would deploy with no side effect.
func (s *Screener) quantized() *quant.Matrix {
	if s.Cfg.PerTensor {
		return quant.QuantizeMatrixPerTensor(s.Wt, s.Cfg.Precision)
	}
	return quant.QuantizeMatrix(s.Wt, s.Cfg.Precision)
}

// Project computes the reduced feature P·h.
func (s *Screener) Project(h []float32) []float32 {
	return s.P.ApplyNew(h)
}

// Screen computes the approximate logits z̃ = W̃·(P·h) + b̃ on the
// quantized datapath, exactly as the Screener hardware does: the
// projected feature is quantized to the screening precision, the
// integer MAC array accumulates, and the bias is added in float.
func (s *Screener) Screen(h []float32) []float32 {
	sc := GetScratch()
	defer sc.Release()
	z := make([]float32, s.Cfg.Categories)
	s.ScreenInto(z, h, sc)
	return z
}

// ScreenInto is Screen with a caller-provided destination (length l)
// and scratch arena: the projection, quantization and GEMV all run in
// reused buffers, so the steady-state cost is zero allocations. The
// bias is added in the GEMV's dequantization epilogue, so the logits
// are written once and never re-read here. For large category counts
// the GEMV is sharded row-wise across goroutines (up to sc.MaxShards);
// every shard writes a disjoint dst range with the same per-row math,
// so the output is bit-identical to the serial kernel.
func (s *Screener) ScreenInto(dst, h []float32, sc *Scratch) {
	if len(dst) != s.Cfg.Categories {
		panic(fmt.Sprintf("core: Screen dst %d != %d", len(dst), s.Cfg.Categories))
	}
	q := &sc.quantized(1)[0]
	s.quantizeInto(q, h, sc)
	rows := s.QW.Rows
	shards := sc.shardCount(s.Cfg.Categories)
	if shards <= 1 {
		s.QW.MatVecRange(dst, q, s.Bt, 0, rows)
		return
	}
	var wg sync.WaitGroup
	chunk := (rows + shards - 1) / shards
	for lo := 0; lo < rows; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			s.QW.MatVecRange(dst, q, s.Bt, lo, hi)
		}(lo, min(lo+chunk, rows))
	}
	wg.Wait()
}

// quantizeInto writes the quantized projected feature of h into q.
func (s *Screener) quantizeInto(q *quant.Vector, h []float32, sc *Scratch) {
	if len(h) != s.Cfg.Hidden {
		panic(fmt.Sprintf("core: Screen hidden %d != %d", len(h), s.Cfg.Hidden))
	}
	if s.QW == nil {
		panic("core: Screen called before Freeze")
	}
	sc.projected = growF32(sc.projected, s.Cfg.Reduced)
	s.P.Apply(sc.projected, h)
	quant.QuantizeVectorInto(q, sc.projected, s.Cfg.Precision)
}

// ScreenBatchInto is ScreenInto for a batch: dsts[i] (length l)
// receives the approximate logits of hs[i], bit-identical to
// ScreenInto, with zero steady-state allocations. The batch rides one
// stream of W̃ per quant.BatchTile items instead of one per item — the
// weight-stationary batching the Screener hardware does — on the
// calling goroutine. A batch of one is ScreenInto itself, intra-query
// sharding included.
func (s *Screener) ScreenBatchInto(dsts, hs [][]float32, sc *Scratch) {
	if len(dsts) != len(hs) {
		panic(fmt.Sprintf("core: ScreenBatchInto %d dsts for %d items", len(dsts), len(hs)))
	}
	if len(hs) == 1 {
		s.ScreenInto(dsts[0], hs[0], sc)
		return
	}
	qs := sc.quantized(len(hs))
	for i, h := range hs {
		s.quantizeInto(&qs[i], h, sc)
	}
	s.QW.MatVecBatchRange(dsts, qs, s.Bt, 0, s.QW.Rows)
}

// ScreenFloat computes z̃ on the float32 master weights (no
// quantization), used by the Fig. 12(b) quantization ablation.
func (s *Screener) ScreenFloat(h []float32) []float32 {
	ph := s.Project(h)
	z := make([]float32, s.Cfg.Categories)
	s.Wt.MatVec(z, ph)
	tensor.Add(z, z, s.Bt)
	return z
}

// WeightBytes reports the deployed screener footprint: quantized W̃,
// per-row scales, float bias, and the 2-bit projection matrix. The
// size is computed from the configuration alone — a reporting getter
// must not quantize an unfrozen screener as a side effect, so QW is
// left untouched; the value matches what Freeze would deploy exactly.
func (s *Screener) WeightBytes() int64 {
	qBytes := (int64(s.Cfg.Categories)*int64(s.Cfg.Reduced)*int64(s.Cfg.Precision) + 7) / 8
	return qBytes + int64(s.Cfg.Categories)*4 + int64(len(s.Bt))*4 + s.P.Bytes()
}
