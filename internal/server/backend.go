package server

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"enmc/internal/core"
	"enmc/internal/distributed"
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

// Backend computes classifications for the serving layer. The three
// implementations are Local (single-node classifier + screener over
// the core worker pool), Sharded (class space split row-wise across
// in-process distributed shards, merged top-k) and cluster.Router
// (networked shard workers behind scatter-gather). All honor ctx
// cancellation between batch items.
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
func (l *Local) ClassifyBatch(ctx context.Context, batch [][]float32, m, topK int) ([]Outcome, error) {
	out := make([]Outcome, len(batch))
	err := core.ClassifyBatchVisitCtx(ctx, l.Classifier, l.Screener, batch, core.TopM(m), telemetry.Global(),
		func(i int, r *core.Result, sc *core.Scratch) {
			idx := sc.TopK(r.Mixed, topK)
			cands := make([]Candidate, len(idx))
			ranked := len(idx) > 0
			for j, c := range idx {
				v := r.Mixed[c]
				cands[j] = Candidate{Class: c, Logit: v}
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

// Sharded serves a row-sharded class space: every shard screens
// locally and the merged global top-k is returned — the same handler
// surface as Local, so a frontend can scale out without clients
// noticing. Shards reload independently (ReplaceShard), so a rolling
// model update serves mixed versions mid-rollout; ModelVersion and
// VersionSkew surface that state.
type Sharded struct {
	mu         sync.RWMutex
	shards     []distributed.Shard
	hidden     int
	categories int
}

// NewSharded validates the shard set and returns a Sharded backend.
func NewSharded(shards []distributed.Shard) (*Sharded, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("server: no shards")
	}
	total := 0
	for i, s := range shards {
		if s.Classifier == nil || s.Screener == nil {
			return nil, fmt.Errorf("server: shard %d incomplete", i)
		}
		total += s.Classifier.Categories()
	}
	return &Sharded{
		shards:     append([]distributed.Shard(nil), shards...),
		hidden:     shards[0].Classifier.Hidden(),
		categories: total,
	}, nil
}

// Hidden implements Backend.
func (s *Sharded) Hidden() int { return s.hidden }

// Categories implements Backend.
func (s *Sharded) Categories() int { return s.categories }

// Shards returns a snapshot of the current shard set.
func (s *Sharded) Shards() []distributed.Shard {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]distributed.Shard(nil), s.shards...)
}

// ReplaceShard hot-swaps shard i with a retrained replacement — the
// independent per-shard reload path of a rolling model update. The
// replacement must cover exactly the same class rows (same offset
// and count) and hidden dimension; batches already holding the old
// snapshot finish on it, new admissions see the new shard.
func (s *Sharded) ReplaceShard(i int, sh distributed.Shard) error {
	if sh.Classifier == nil || sh.Screener == nil {
		return fmt.Errorf("server: replacement shard incomplete")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("server: shard index %d out of range [0,%d)", i, len(s.shards))
	}
	old := s.shards[i]
	if sh.Offset != old.Offset || sh.Classifier.Categories() != old.Classifier.Categories() ||
		sh.Classifier.Hidden() != old.Classifier.Hidden() {
		return fmt.Errorf("server: replacement shard %d shape/offset mismatch (offset %d rows %d vs offset %d rows %d)",
			i, sh.Offset, sh.Classifier.Categories(), old.Offset, old.Classifier.Categories())
	}
	// Copy-on-write: in-flight batches hold the old slice as an
	// immutable snapshot, so the swap never mixes versions (or races)
	// within a batch already running.
	next := append([]distributed.Shard(nil), s.shards...)
	next[i] = sh
	s.shards = next
	return nil
}

// ModelVersion implements Versioned: the single shard version when
// the deployment is uniform, or the distinct versions joined with
// "," while a rolling update is in flight.
func (s *Sharded) ModelVersion() string {
	vs := s.distinctVersions()
	return strings.Join(vs, ",")
}

// VersionSkew implements SkewReporter: true while shards disagree on
// their model version.
func (s *Sharded) VersionSkew() bool { return len(s.distinctVersions()) > 1 }

// ShardVersions returns each shard's version, shard-ordered.
func (s *Sharded) ShardVersions() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Version
	}
	return out
}

func (s *Sharded) distinctVersions() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := map[string]bool{}
	var vs []string
	for _, sh := range s.shards {
		if !seen[sh.Version] {
			seen[sh.Version] = true
			vs = append(vs, sh.Version)
		}
	}
	sort.Strings(vs)
	return vs
}

// ClassifyBatch implements Backend: the screening budget m is split
// evenly across shards (ceiling division, so the merged candidate
// pool is at least m); per item, the shards are screened by
// ClassifyCtx's bounded worker pool rather than sequentially. The
// shard set is snapshotted once per batch, so a concurrent
// ReplaceShard never mixes versions within one item.
func (s *Sharded) ClassifyBatch(ctx context.Context, batch [][]float32, m, topK int) ([]Outcome, error) {
	s.mu.RLock()
	shards := s.shards
	s.mu.RUnlock()
	per := (m + len(shards) - 1) / len(shards)
	if per < 1 {
		per = 1
	}
	out := make([]Outcome, len(batch))
	for i, h := range batch {
		cands, err := distributed.ClassifyCtx(ctx, shards, h, per, topK)
		if err != nil {
			return nil, err
		}
		ck := make([]Candidate, len(cands))
		for j, c := range cands {
			ck[j] = Candidate{Class: c.Class, Logit: c.Logit}
		}
		o := Outcome{TopK: ck}
		if len(cands) > 0 {
			o.Class = cands[0].Class
		}
		out[i] = o
	}
	return out, nil
}
