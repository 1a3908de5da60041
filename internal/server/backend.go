package server

import (
	"context"
	"fmt"

	"enmc/internal/core"
	"enmc/internal/telemetry"
)

// Candidate is one ranked class in a response, in global class
// numbering.
type Candidate struct {
	Class int     `json:"class"`
	Logit float32 `json:"logit"`
}

// Outcome is one request's classification result.
type Outcome struct {
	Class int
	TopK  []Candidate
}

// Partial describes a response computed without some shards: when
// every replica of a cluster shard is unreachable the router serves
// the merged top-k of the surviving shards instead of failing, and
// this records what was missing (PR 2's degrade-don't-fail policy
// extended across the network boundary).
type Partial struct {
	// Partial is true when at least one shard's candidates are
	// absent from the merge.
	Partial bool `json:"partial"`
	// MissingShards lists the unreachable shard ids.
	MissingShards []int `json:"missing_shards,omitempty"`
}

// PartialBackend is implemented by backends that can degrade to a
// partial merge when part of the class space is unreachable (the
// cluster router). The serving layer surfaces Partial per-response.
type PartialBackend interface {
	Backend
	ClassifyBatchPartial(ctx context.Context, batch [][]float32, m, topK int) ([]Outcome, Partial, error)
}

// Backend computes classifications for the serving layer. The two
// implementations are Local (single-node classifier + screener over
// the core worker pool) and cluster.Router (networked shard workers
// behind scatter-gather). Both honor ctx cancellation between batch
// items.
type Backend interface {
	// ClassifyBatch classifies each hidden vector under screening
	// budget m, returning each item's top-k candidates (k capped by
	// the backend's class count).
	ClassifyBatch(ctx context.Context, batch [][]float32, m, topK int) ([]Outcome, error)
	// Hidden is the expected feature dimension d.
	Hidden() int
	// Categories is the global class count l.
	Categories() int
}

// Local serves a single-node classifier/screener pair.
type Local struct {
	Classifier *core.Classifier
	Screener   *core.Screener
}

// NewLocal validates that the screener matches the classifier's
// shape and returns a Local backend.
func NewLocal(cls *core.Classifier, scr *core.Screener) (*Local, error) {
	if cls == nil || scr == nil {
		return nil, fmt.Errorf("server: nil classifier or screener")
	}
	if scr.Cfg.Categories != cls.Categories() || scr.Cfg.Hidden != cls.Hidden() {
		return nil, fmt.Errorf("server: screener shape %dx%d does not match classifier %dx%d",
			scr.Cfg.Categories, scr.Cfg.Hidden, cls.Categories(), cls.Hidden())
	}
	return &Local{Classifier: cls, Screener: scr}, nil
}

// Hidden implements Backend.
func (l *Local) Hidden() int { return l.Classifier.Hidden() }

// Categories implements Backend.
func (l *Local) Categories() int { return l.Classifier.Categories() }

// ClassifyBatch implements Backend over core.ClassifyBatchVisitCtx:
// each item's Result stays in the worker's scratch arena and only the
// small Outcome (predicted class + top-k candidates) is copied out,
// instead of materializing an l-sized mixed-logit vector per item.
// The ranking is Scratch.RankMixed: usually the m exact logits alone,
// the whole mixed vector only when Result.Floor cannot vouch for them.
func (l *Local) ClassifyBatch(ctx context.Context, batch [][]float32, m, topK int) ([]Outcome, error) {
	out := make([]Outcome, len(batch))
	err := core.ClassifyBatchVisitCtx(ctx, l.Classifier, l.Screener, batch, core.TopM(m), telemetry.Global(),
		func(i int, r *core.Result, sc *core.Scratch) {
			// top_k = 0 still ranks one: its head is the class.
			idx := sc.RankMixed(r, max(topK, 1))
			cands := make([]Candidate, min(max(topK, 0), len(idx)))
			ranked := len(idx) > 0
			for j, c := range idx {
				v := r.Mixed[c]
				if j < len(cands) {
					cands[j] = Candidate{Class: c, Logit: v}
				}
				ranked = ranked && v == v
			}
			// The head of a NaN-free ranking is the argmax (same
			// tie rule; tensor.TestTopKHeadIsArgMax), which saves a
			// second sweep of all l logits. A NaN among the ranked
			// values means the two could differ: sweep then.
			out[i] = Outcome{TopK: cands}
			if ranked {
				out[i].Class = idx[0]
			} else {
				out[i].Class = r.Predict()
			}
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}
