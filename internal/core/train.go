package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"enmc/internal/quant"
	"enmc/internal/telemetry"
	"enmc/internal/tensor"
	"enmc/internal/xrand"
)

// Training instruments on the default telemetry registry.
var (
	mTrainEpochs  = telemetry.Default().Counter("core.train.epochs")
	mTrainEpochNs = telemetry.Default().Histogram("core.train.epoch_ns", telemetry.LatencyBuckets())
	mTrainLoss    = telemetry.Default().Gauge("core.train.last_epoch_loss")
)

// Eq. 4's SGD minibatch size s and the normalized-LMS step size
// µ ∈ (0, 1]. The update is scaled by 1/(mean ||P·h||² + ε), which
// keeps SGD stable regardless of feature magnitude.
const (
	trainBatchSize    = 16
	trainLearningRate = 0.5
)

// TrainOptions controls Algorithm 1, the SGD distillation of the
// screener against the frozen full classifier.
type TrainOptions struct {
	// Epochs is the number of passes over the sample set. The paper
	// reports convergence "in several training epochs"; defaults to 5.
	Epochs int
	// Seed shuffles the sample order.
	Seed uint64
	// QuantAware enables straight-through-estimator fine-tuning: the
	// first two thirds of the epochs train the float master as usual,
	// then the forward pass switches to the quantized weights
	// (re-quantized per minibatch) while gradients keep updating the
	// float master — the distillation ends up minimizing the error of
	// the datapath that will actually run. Matters at aggressive
	// precisions (INT2); at INT4 post-training quantization is already
	// near-lossless (Fig. 12b).
	QuantAware bool
	// Logf, when non-nil, receives one line per epoch.
	Logf func(format string, args ...interface{})
}

// TrainStats reports the distillation trajectory.
type TrainStats struct {
	// EpochLoss is the mean of ||z − ẑ||²/l after each epoch,
	// measured on the float (unquantized) screener.
	EpochLoss []float64
}

// TrainScreener runs Algorithm 1: initialize P, then minimize
// L = mean ||(W·h + b) − (W̃·P·h + b̃)||² over the samples with
// minibatch SGD, holding W, b and P fixed. The returned screener is
// frozen (quantized) and ready for inference.
func TrainScreener(cls *Classifier, samples [][]float32, cfg Config, opt TrainOptions) (*Screener, *TrainStats, error) {
	if opt.Epochs <= 0 {
		opt.Epochs = 5
	}
	if cls.Categories() != cfg.Categories || cls.Hidden() != cfg.Hidden {
		return nil, nil, fmt.Errorf("core: classifier %dx%d does not match config l=%d d=%d",
			cls.Categories(), cls.Hidden(), cfg.Categories, cfg.Hidden)
	}
	if len(samples) == 0 {
		return nil, nil, fmt.Errorf("core: no training samples")
	}
	for i, h := range samples {
		if len(h) != cfg.Hidden {
			return nil, nil, fmt.Errorf("core: sample %d has dimension %d, want %d", i, len(h), cfg.Hidden)
		}
	}

	scr, err := newScreener(cfg)
	if err != nil {
		return nil, nil, err
	}

	l, k := cfg.Categories, cfg.Reduced
	rng := xrand.New(opt.Seed)
	stats := &TrainStats{}
	tr := telemetry.Global()
	precomputeStart := tr.Now()

	// Precompute projections and exact targets once: both are
	// constant across epochs because W, b and P are frozen. The
	// per-sample work (the exact logits z = W·h dominate at large l·d)
	// is independent, so it fans out across GOMAXPROCS workers with
	// results bit-identical for any worker count.
	workers := min(runtime.GOMAXPROCS(0), len(samples))
	proj := make([][]float32, len(samples))
	targets := make([][]float32, len(samples))
	var wg sync.WaitGroup
	var next int64 = -1
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(samples) {
					return
				}
				proj[i] = scr.Project(samples[i])
				targets[i] = cls.Logits(samples[i])
			}
		}()
	}
	wg.Wait()
	tr.AddSince("train.precompute-targets", telemetry.TrackPipeline, precomputeStart)

	gradW := tensor.NewMatrix(l, k)
	gradB := make([]float32, l)
	zhat := make([]float32, l)
	resid := make([]float32, l)

	for epoch := 0; epoch < opt.Epochs; epoch++ {
		epochStart := time.Now()
		epochTick := tr.Now()
		// QAT fine-tuning kicks in for the final third of training.
		qatActive := opt.QuantAware && epoch >= opt.Epochs*2/3
		order := rng.Perm(len(samples))
		var epochSSE float64
		for start := 0; start < len(order); start += trainBatchSize {
			end := min(start+trainBatchSize, len(order))
			batch := order[start:end]

			for i := range gradW.Data {
				gradW.Data[i] = 0
			}
			for i := range gradB {
				gradB[i] = 0
			}
			var qw *quant.Matrix
			if qatActive {
				if cfg.PerTensor {
					qw = quant.QuantizeMatrixPerTensor(scr.Wt, cfg.Precision)
				} else {
					qw = quant.QuantizeMatrix(scr.Wt, cfg.Precision)
				}
			}
			var phNorm float64
			for _, si := range batch {
				ph := proj[si]
				if qw != nil {
					// STE forward: quantized weights and feature.
					qw.MatVec(zhat, quant.QuantizeVector(ph, cfg.Precision))
				} else {
					scr.Wt.MatVec(zhat, ph)
				}
				tensor.Add(zhat, zhat, scr.Bt)
				tensor.Sub(resid, targets[si], zhat) // r = z − ẑ
				for c := 0; c < l; c++ {
					r := resid[c]
					epochSSE += float64(r) * float64(r)
					if r != 0 {
						tensor.Axpy(gradW.Row(c), r, ph)
						gradB[c] += r
					}
				}
				n := tensor.Norm2(ph)
				phNorm += n * n
			}
			// Normalized-LMS step: divide by mean squared projected
			// feature norm so the step is scale-free and stable. The
			// QAT phase fine-tunes with a smaller step: the STE
			// gradient carries quantization noise, and large steps
			// would amplify it.
			bs := float32(len(batch))
			lr := float32(trainLearningRate)
			if qatActive {
				lr *= 0.2
			}
			step := lr / (float32(phNorm)/bs + 1e-8)
			for i := range scr.Wt.Data {
				scr.Wt.Data[i] += step * gradW.Data[i] / bs
			}
			// Bias has unit "feature", so its NLMS normalizer is 1.
			biasStep := lr / bs
			for i := range scr.Bt {
				scr.Bt[i] += biasStep * gradB[i]
			}
		}
		loss := epochSSE / float64(len(samples)) / float64(l)
		stats.EpochLoss = append(stats.EpochLoss, loss)
		mTrainEpochs.Inc()
		mTrainEpochNs.Observe(float64(time.Since(epochStart)))
		mTrainLoss.Set(loss)
		if tr.Enabled() {
			tr.AddSince(fmt.Sprintf("train.epoch.%d", epoch+1), telemetry.TrackPipeline, epochTick)
		}
		if opt.Logf != nil {
			opt.Logf("epoch %d: screener MSE %.6g", epoch+1, loss)
		}
	}

	scr.Freeze()
	return scr, stats, nil
}

// ProjectedScreener builds the analytic (non-learned) screener
// W̃ = (k/d)·W·Pᵀ, b̃ = b — the closed-form least-squares solution
// under isotropic features, since E[P·Pᵀ] = (d/k)·I for the
// Achlioptas distribution. It serves as the learned-vs-projected
// ablation.
func ProjectedScreener(cls *Classifier, cfg Config) (*Screener, error) {
	if cls.Categories() != cfg.Categories || cls.Hidden() != cfg.Hidden {
		return nil, fmt.Errorf("core: classifier %dx%d does not match config l=%d d=%d",
			cls.Categories(), cls.Hidden(), cfg.Categories, cfg.Hidden)
	}
	scr, err := newScreener(cfg)
	if err != nil {
		return nil, err
	}
	l, d, k := cfg.Categories, cfg.Hidden, cfg.Reduced
	scale := float32(k) / float32(d)
	// W̃[c][i] = (k/d) Σ_j W[c][j]·P[i][j]; exploit P's ternary rows.
	for i := 0; i < k; i++ {
		for j := 0; j < d; j++ {
			switch scr.P.At(i, j) {
			case 1:
				for c := 0; c < l; c++ {
					scr.Wt.Data[c*k+i] += cls.W.Data[c*d+j]
				}
			case -1:
				for c := 0; c < l; c++ {
					scr.Wt.Data[c*k+i] -= cls.W.Data[c*d+j]
				}
			}
		}
	}
	tensor.Scale(scr.Wt.Data, scale*scr.P.Scale)
	copy(scr.Bt, cls.B)
	scr.Freeze()
	return scr, nil
}
