// Package enmc is a from-scratch reproduction of "ENMC: Extreme
// Near-Memory Classification via Approximate Screening" (MICRO 2021).
//
// The package exposes the paper's two contributions behind one
// facade:
//
//   - the approximate-screening algorithm for extreme classification:
//     a sparse-random-projection + learned low-rank + quantized
//     screener selects a small candidate set, which is then
//     recomputed exactly (NewClassifier, TrainScreener, Classify);
//
//   - the ENMC near-memory architecture: a cycle-level simulator of
//     the per-rank Screener/Executor DIMM design, its instruction
//     set, its compiler, the baseline NMP designs and the energy
//     model (Simulate, AssembleProgram).
//
// Everything is implemented on the Go standard library; the
// subsystems live under internal/ (tensor math, DDR4 timing
// simulation, ISA, compiler, baselines, metrics) and are orchestrated
// here. See README.md for a tour and DESIGN.md for the per-experiment
// reproduction index.
package enmc

import (
	"context"
	"fmt"
	"io"

	"enmc/internal/core"
	"enmc/internal/quant"
	"enmc/internal/tensor"
)

// Precision selects the screener's fixed-point format.
type Precision int

// Supported screening precisions. INT4 is the paper's (and the ENMC
// hardware's) operating point.
const (
	INT2 Precision = 2
	INT4 Precision = 4
	INT8 Precision = 8
)

// Classifier is a full (exact) extreme-classification layer:
// z = W·h + b over l categories.
type Classifier struct {
	inner *core.Classifier
}

// NewClassifier builds a classifier from row-major weights (one row
// per category) and a bias vector.
func NewClassifier(weights [][]float32, bias []float32) (*Classifier, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("enmc: empty weight matrix")
	}
	w := tensor.FromRows(weights)
	inner, err := core.NewClassifier(w, bias)
	if err != nil {
		return nil, err
	}
	return &Classifier{inner: inner}, nil
}

// Categories returns the number of output classes l.
func (c *Classifier) Categories() int { return c.inner.Categories() }

// Hidden returns the hidden dimension d.
func (c *Classifier) Hidden() int { return c.inner.Hidden() }

// Logits computes the exact pre-softmax outputs for a hidden vector.
func (c *Classifier) Logits(h []float32) []float32 { return c.inner.Logits(h) }

// Predict returns the exact argmax class.
func (c *Classifier) Predict(h []float32) int { return c.inner.Predict(h) }

// WeightBytes reports the FP32 classifier footprint — the quantity
// that makes extreme classification memory-bound.
func (c *Classifier) WeightBytes() int64 { return c.inner.WeightBytes() }

// ScreenerConfig configures the approximate-screening module
// (paper Eq. 3): z̃ = W̃·(P·h) + b̃ with P a sparse random projection
// to Reduced dimensions and W̃ learned by distillation.
type ScreenerConfig struct {
	// Reduced is k, the projected dimension (k ≪ d). The paper's
	// operating point is d/4. Defaults to d/4 when zero.
	Reduced int
	// Precision is the fixed-point format; defaults to INT4.
	Precision Precision
	// Seed drives the projection matrix and training shuffle.
	Seed uint64
	// Epochs of SGD distillation (Algorithm 1); defaults to 5.
	Epochs int
	// QuantAware enables straight-through-estimator fine-tuning for
	// the final third of training — useful at INT2, unnecessary at
	// the default INT4.
	QuantAware bool
}

// Screener approximates a classifier cheaply and ranks candidates.
type Screener struct {
	inner *core.Screener
}

// TrainScreener runs Algorithm 1: distill the frozen classifier into
// a screener on the given hidden-vector samples.
func TrainScreener(c *Classifier, samples [][]float32, cfg ScreenerConfig) (*Screener, error) {
	k := cfg.Reduced
	if k <= 0 {
		k = c.Hidden() / 4
		if k < 1 {
			k = 1
		}
	}
	prec := cfg.Precision
	if prec == 0 {
		prec = INT4
	}
	inner, _, err := core.TrainScreener(c.inner, samples, core.Config{
		Categories: c.Categories(),
		Hidden:     c.Hidden(),
		Reduced:    k,
		Precision:  quant.Bits(prec),
		Seed:       cfg.Seed,
	}, core.TrainOptions{Epochs: cfg.Epochs, Seed: cfg.Seed + 1, QuantAware: cfg.QuantAware})
	if err != nil {
		return nil, err
	}
	return &Screener{inner: inner}, nil
}

// Screen returns the approximate logits z̃ for a hidden vector,
// computed on the quantized datapath exactly as the hardware does.
func (s *Screener) Screen(h []float32) []float32 { return s.inner.Screen(h) }

// WeightBytes reports the deployed screener footprint (quantized W̃,
// scales, bias, and the 2-bit projection).
func (s *Screener) WeightBytes() int64 { return s.inner.WeightBytes() }

// Selection chooses candidates from approximate logits: either the
// top-M values or everything above a threshold (the hardware's
// comparator filter).
type Selection = core.Selection

// TopM selects the m highest approximate logits as candidates.
func TopM(m int) Selection { return core.TopM(m) }

// Threshold selects all approximate logits ≥ t as candidates.
func Threshold(t float32) Selection { return core.Threshold(t) }

// CalibrateThreshold tunes a threshold on validation features so the
// average candidate count is near target (paper Section 4.2).
func CalibrateThreshold(s *Screener, validation [][]float32, target int) float32 {
	return core.CalibrateThreshold(s.inner, validation, target)
}

// Result is the outcome of screening-based classification.
type Result struct {
	// Logits is the mixed pre-softmax vector: approximate everywhere,
	// exact at the candidates.
	Logits []float32
	// Candidates are the class indices recomputed exactly.
	Candidates []int
}

// Predict returns the argmax of the mixed logits.
func (r *Result) Predict() int { return tensor.ArgMax(r.Logits) }

// TopK returns the k highest-scoring classes of the mixed logits.
func (r *Result) TopK(k int) []int { return tensor.TopK(r.Logits, k) }

// Probabilities softmax-normalizes the mixed logits.
func (r *Result) Probabilities() []float32 {
	res := core.Result{Mixed: r.Logits}
	return res.Probabilities()
}

// Classify runs the paper's full inference pipeline (Section 4.2):
// screen, select candidates, recompute them exactly, merge. Stage
// latencies and candidate counts land in the telemetry registry (see
// MetricsSnapshot); pass WithTracer to also record per-stage spans.
func Classify(c *Classifier, s *Screener, h []float32, sel Selection, opts ...Option) *Result {
	res, _ := ClassifyContext(context.Background(), c, s, h, sel, opts...) // Background never cancels
	return res
}

// ClassifyBatch applies Classify to a batch of hidden vectors over a
// bounded worker pool (GOMAXPROCS workers); results are ordered and
// bit-identical to the serial loop.
func ClassifyBatch(c *Classifier, s *Screener, batch [][]float32, sel Selection, opts ...Option) []*Result {
	out, _ := ClassifyBatchContext(context.Background(), c, s, batch, sel, opts...) // Background never cancels
	return out
}

// ClassifyContext is Classify with cancellation: when ctx is done
// before the pipeline starts, or while it runs, it returns ctx.Err()
// and a nil result. Serving stacks thread per-request deadlines
// through here.
func ClassifyContext(ctx context.Context, c *Classifier, s *Screener, h []float32, sel Selection, opts ...Option) (*Result, error) {
	out := make([]*Result, 1)
	_, err := classify(ctx, out, c, s, [][]float32{h}, sel, opts)
	return out[0], err
}

// ClassifyBatchContext is ClassifyBatch with cancellation honored
// between batch items: once ctx is done no further item starts and
// the call returns ctx.Err() with a nil slice. In-flight items (one
// screen matmul plus a few exact rows each) run to completion.
func ClassifyBatchContext(ctx context.Context, c *Classifier, s *Screener, batch [][]float32, sel Selection, opts ...Option) ([]*Result, error) {
	return classify(ctx, make([]*Result, len(batch)), c, s, batch, sel, opts)
}

// classify is the one pipeline behind every facade entry point: it
// runs batch through core.ClassifyBatchVisitCtx with the options'
// tracer and copies each item's result out of the worker arena into
// out[i]. On error it clears out and returns a nil slice.
func classify(ctx context.Context, out []*Result, c *Classifier, s *Screener, batch [][]float32, sel Selection, opts []Option) ([]*Result, error) {
	var o callOpts
	o.apply(opts)
	err := core.ClassifyBatchVisitCtx(ctx, c.inner, s.inner, batch, sel, o.tracer, func(i int, res *core.Result, _ *core.Scratch) {
		out[i] = &Result{Logits: append([]float32(nil), res.Mixed...), Candidates: append([]int(nil), res.Candidates...)}
	})
	if err != nil {
		clear(out)
		return nil, err
	}
	return out, nil
}

// SaveScreener serializes a trained screener to w in the binary
// deployment format (see internal/core serialization).
func SaveScreener(s *Screener, w io.Writer) error {
	_, err := s.inner.WriteTo(w)
	return err
}

// LoadScreener reads a screener saved by SaveScreener. The restored
// screener produces bit-identical outputs.
func LoadScreener(r io.Reader) (*Screener, error) {
	inner, err := core.ReadScreener(r)
	if err != nil {
		return nil, err
	}
	return &Screener{inner: inner}, nil
}

// SaveClassifier serializes the full classifier (large: l×d float32).
func SaveClassifier(c *Classifier, w io.Writer) error {
	_, err := c.inner.WriteTo(w)
	return err
}

// LoadClassifier reads a classifier saved by SaveClassifier.
func LoadClassifier(r io.Reader) (*Classifier, error) {
	inner, err := core.ReadClassifier(r)
	if err != nil {
		return nil, err
	}
	return &Classifier{inner: inner}, nil
}
