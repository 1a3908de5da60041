package cluster

import (
	"context"
	"fmt"
	"math"

	"enmc/internal/decode"
)

// DecodeScorer adapts the router to decode.Scorer: every token's
// screen fans out across the shards like any classify call, and the
// merged global top-k becomes the step score. This is the NMPO
// offload boundary applied per token — the decoder hidden state stays
// on the serving host, only (class, logit) survivor pairs cross the
// wire each step, and the session never ships its state to a worker.
//
// The log-probabilities are computed over the merged candidate pool
// only (the router never sees the full logit vector), i.e. a softmax
// that ignores the screened-out tail mass. Rankings are unaffected —
// candidates carry exact logits — so greedy and beam token choices
// match what a single node with the same global top-k would pick.
type DecodeScorer struct {
	r *Router

	batch   [][]float32
	classes []int
	lps     []float64
}

// NewDecodeScorer builds a per-session scorer.
func (r *Router) NewDecodeScorer() *DecodeScorer {
	return &DecodeScorer{r: r, batch: make([][]float32, 1)}
}

// ScoreStep implements decode.Scorer.
func (ds *DecodeScorer) ScoreStep(ctx context.Context, h []float32, m, k int) (decode.StepScore, error) {
	if k < 1 {
		k = 1
	}
	ds.batch[0] = h
	outs, _, err := ds.r.ClassifyBatchPartial(ctx, ds.batch, m, k)
	ds.batch[0] = nil
	if err != nil {
		return decode.StepScore{}, err
	}
	topk := outs[0].TopK
	if len(topk) == 0 {
		return decode.StepScore{}, fmt.Errorf("cluster: decode step merged zero candidates")
	}
	if cap(ds.classes) < len(topk) {
		ds.classes = make([]int, len(topk))
		ds.lps = make([]float64, len(topk))
	}
	classes, lps := ds.classes[:len(topk)], ds.lps[:len(topk)]
	// Log-sum-exp over the candidate pool, anchored at the max for
	// stability.
	maxZ := float64(topk[0].Logit)
	for _, c := range topk[1:] {
		if z := float64(c.Logit); z > maxZ {
			maxZ = z
		}
	}
	var sum float64
	for _, c := range topk {
		sum += math.Exp(float64(c.Logit) - maxZ)
	}
	lse := maxZ + math.Log(sum)
	for i, c := range topk {
		classes[i] = c.Class
		lps[i] = float64(c.Logit) - lse
	}
	return decode.StepScore{Classes: classes, LogProbs: lps, M: m}, nil
}

// Close implements decode.Scorer; the scorer holds no pooled state.
func (ds *DecodeScorer) Close() {}
