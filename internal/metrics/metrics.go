// Package metrics implements the quality measures of the paper's
// algorithm-level evaluation (Fig. 11 and Fig. 12): perplexity for
// language modeling, corpus BLEU for translation, and ScreenQuality,
// how well a screened answer reproduces the exact classifier's — the
// one quality probe the experiments and the registry's canary share.
package metrics

import (
	"context"
	"math"

	"enmc/internal/activation"
	"enmc/internal/core"
	"enmc/internal/tensor"
)

// Perplexity returns exp(mean cross-entropy) of the given pre-softmax
// logit vectors against integer labels. logits[i] scores sample i.
func Perplexity(logits [][]float32, labels []int) float64 {
	if len(logits) != len(labels) {
		panic("metrics: Perplexity length mismatch")
	}
	if len(logits) == 0 {
		return math.NaN()
	}
	var nll float64
	for i, z := range logits {
		lse := activation.LogSumExp(z)
		nll += lse - float64(z[labels[i]])
	}
	return math.Exp(nll / float64(len(logits)))
}

// Quality is how closely screened answers reproduce the exact
// classifier's over a probe set. Each field is a fraction in [0, 1],
// NaN over an empty probe set.
type Quality struct {
	// RecallAtK is the mean |screened top-k ∩ exact top-k| / k.
	RecallAtK float64
	// Top1 is the fraction of probes whose screened top-1 is the
	// exact top-1.
	Top1 float64
	// Top1InK is the fraction whose screened top-1 is in the exact
	// top-k — the statistic Fig. 11 prints as "P@1".
	Top1InK float64
}

// ScreenQuality scores classify's answers against cls's full logits
// over probes, ranking both with the rule Result.TopPredictions uses
// (tensor.TopK: ties toward the lower index); k ≥ 1 is clamped to the
// class count. It holds one probe's vectors at a time, so memory stays
// O(l) at any probe count, and classify's Result need only stay valid
// until classify is called again. The only error is ctx.Err(), once
// the context ends.
func ScreenQuality(ctx context.Context, cls *core.Classifier, probes [][]float32, k int, classify func(h []float32) *core.Result) (Quality, error) {
	k = min(k, cls.Categories())
	var screenedBuf, exactBuf tensor.TopKBuf
	var hits, top1, top1InK int
	for _, h := range probes {
		if err := ctx.Err(); err != nil {
			return Quality{}, err
		}
		screened := tensor.TopKInto(classify(h).Mixed, k, &screenedBuf)
		exact := tensor.TopKInto(cls.Logits(h), k, &exactBuf)
		if screened[0] == exact[0] {
			top1++
		}
		for _, s := range screened {
			for _, e := range exact {
				if s == e {
					hits++
					if s == screened[0] {
						top1InK++
					}
					break
				}
			}
		}
	}
	n := float64(len(probes))
	return Quality{
		RecallAtK: float64(hits) / (n * float64(k)),
		Top1:      float64(top1) / n,
		Top1InK:   float64(top1InK) / n,
	}, nil
}
