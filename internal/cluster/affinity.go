package cluster

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"enmc/internal/decode"
	"enmc/internal/telemetry"
)

var mSessionRepin = telemetry.Default().Counter("cluster.session_repin")

// Affinity is one decode session's sticky session→replica mapping:
// for each shard, the replica that served the session last. Pinning
// matters at decode scale — a session screens every token, and
// without stickiness each token re-scatters across the replica set,
// defeating any per-replica warmth (connection, page cache, and —
// once workers cache per-session state — everything else). The pin is
// advisory: the pinned replica is simply ordered first in the shard's
// failover sequence, so when it dies the normal failover path answers
// from another replica and the session re-pins there (counted by
// cluster.session_repin). Failover therefore costs one slow token,
// never a dropped stream.
type Affinity struct {
	pins []atomic.Int32 // per shard: replica index, -1 unpinned
}

// NewAffinity returns an unpinned affinity for this router's
// geometry. One per decode session.
func (r *Router) NewAffinity() *Affinity {
	a := &Affinity{pins: make([]atomic.Int32, len(r.shards))}
	for i := range a.pins {
		a.pins[i].Store(-1)
	}
	return a
}

func (a *Affinity) pin(shard int) int {
	if a == nil || shard >= len(a.pins) {
		return -1
	}
	return int(a.pins[shard].Load())
}

// record notes which replica answered for a shard, counting a re-pin
// when an established pin moved (first pins are free).
func (a *Affinity) record(shard, replica int) {
	if a == nil || shard >= len(a.pins) {
		return
	}
	prev := a.pins[shard].Swap(int32(replica))
	if prev >= 0 && int(prev) != replica {
		mSessionRepin.Inc()
	}
}

// Pins returns the current pin vector (testing/debug).
func (a *Affinity) Pins() []int {
	out := make([]int, len(a.pins))
	for i := range a.pins {
		out[i] = int(a.pins[i].Load())
	}
	return out
}

// DecodeScorer adapts the router to decode.Scorer: every token's
// screen fans out across the shards with the session's affinity, and
// the merged global top-k becomes the step score. This is the NMPO
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
	r   *Router
	aff *Affinity

	batch   [][]float32
	classes []int
	lps     []float64
}

// NewDecodeScorer builds a per-session scorer with a fresh affinity.
func (r *Router) NewDecodeScorer() *DecodeScorer {
	return &DecodeScorer{r: r, aff: r.NewAffinity(), batch: make([][]float32, 1)}
}

// Affinity exposes the session's pin state (testing/debug).
func (ds *DecodeScorer) Affinity() *Affinity { return ds.aff }

// ScoreStep implements decode.Scorer.
func (ds *DecodeScorer) ScoreStep(ctx context.Context, h []float32, m, k int) (decode.StepScore, error) {
	if k < 1 {
		k = 1
	}
	ds.batch[0] = h
	outs, _, err := ds.r.classifyBatchAffine(ctx, ds.batch, m, k, ds.aff)
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
