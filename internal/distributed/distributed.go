// Package distributed is the class partition and merge behind the
// scale-out the paper sketches in its related-work discussion: "our
// design can scale-out from single-node to distributed nodes, where
// each node keeps an approximate screener". Classes are sharded
// row-wise across nodes (ShardRange, ShardOne, ShardClassifier); every
// node screens its shard with its own screener, recomputes its local
// candidates exactly, and ships only the candidate (class, logit)
// pairs to an aggregator that merges the global top-k (Merge,
// MergeDedup) — the same decomposition capacity-driven recommendation
// inference uses (Lui et al., ISPASS 2021). Classify runs that scatter
// in process; it is the reference the networked cluster router must
// match bit for bit. The scale-out performance model lives with its
// experiment (experiments.ExtScaleOut).
package distributed

import (
	"fmt"
	"sort"

	"enmc/internal/core"
	"enmc/internal/tensor"
)

// Shard is one node's slice of the class space: a classifier over
// rows [Offset, Offset+Classifier.Categories) of the global problem,
// with its own locally trained screener.
type Shard struct {
	Offset     int
	Classifier *core.Classifier
	Screener   *core.Screener
	// Version names the model artifact this shard serves (registry
	// version string; empty for unversioned shards). Shards reload
	// independently in a rolling update, so a deployment can be on
	// mixed versions mid-rollout — the serving layer surfaces that
	// skew per-response.
	Version string
}

// Candidate is a merged result entry in global class numbering.
type Candidate struct {
	Class int
	Logit float32
}

// Classify is the in-process reference scatter: it screens every
// shard in turn with core.ClassifyApprox under a per-shard top-m
// budget, globalizes each shard's exact candidates, and merges the
// global top-k, descending by exact logit. It is the bit-identity
// oracle the networked cluster router is held to.
func Classify(shards []Shard, h []float32, perShardM, topK int) ([]Candidate, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("distributed: no shards")
	}
	var merged []Candidate
	for i, s := range shards {
		if s.Classifier == nil || s.Screener == nil {
			return nil, fmt.Errorf("distributed: shard %d incomplete", i)
		}
		res := core.ClassifyApprox(s.Classifier, s.Screener, h, core.TopM(perShardM))
		for j, c := range res.Candidates {
			merged = append(merged, Candidate{Class: s.Offset + c, Logit: res.Exact[j]})
		}
	}
	return Merge(merged, topK), nil
}

// Merge ranks a gathered candidate pool descending by exact logit
// (ties broken by ascending class) and truncates to topK (topK <= 0
// keeps everything). It mutates and returns cands. This is the
// aggregator step shared by the in-process scatter (Classify) and the
// networked cluster router.
func Merge(cands []Candidate, topK int) []Candidate {
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].Logit != cands[b].Logit {
			return cands[a].Logit > cands[b].Logit
		}
		return cands[a].Class < cands[b].Class
	})
	if topK > 0 && len(cands) > topK {
		cands = cands[:topK]
	}
	return cands
}

// MergeDedup is Merge over untrusted replies: in-process shards are
// disjoint by construction, but a networked shard map can overlap (a
// misconfigured router, a double reply), so duplicate class entries
// collapse to their highest logit before ranking.
func MergeDedup(cands []Candidate, topK int) []Candidate {
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].Class != cands[b].Class {
			return cands[a].Class < cands[b].Class
		}
		return cands[a].Logit > cands[b].Logit
	})
	uniq := cands[:0]
	for _, c := range cands {
		if len(uniq) == 0 || c.Class != uniq[len(uniq)-1].Class {
			uniq = append(uniq, c)
		}
	}
	return Merge(uniq, topK)
}

// ShardCount reports how many non-empty row shards splitting l
// classes n ways produces (ceiling-division row slices can leave the
// tail shards empty when n does not divide l evenly).
func ShardCount(l, n int) int {
	per := (l + n - 1) / n
	return (l + per - 1) / per
}

// ShardRange returns the class rows [off, end) shard i owns when l
// classes are split across n shards — the row map every process in a
// cluster (workers and router alike) must agree on.
func ShardRange(l, n, i int) (off, end int, err error) {
	if n <= 0 {
		return 0, 0, fmt.Errorf("distributed: non-positive shard count %d", n)
	}
	if n > l {
		return 0, 0, fmt.Errorf("distributed: more shards (%d) than classes (%d)", n, l)
	}
	if i < 0 || i >= ShardCount(l, n) {
		return 0, 0, fmt.Errorf("distributed: shard index %d out of range [0,%d)", i, ShardCount(l, n))
	}
	per := (l + n - 1) / n
	off = i * per
	end = off + per
	if end > l {
		end = l
	}
	return off, end, nil
}

// ShardOne builds shard i of an n-way split: the row-slice
// sub-classifier plus a screener trained locally on the given
// samples. The per-shard seed is derived from the row offset, so a
// worker process building only its own shard produces bit-identical
// parameters to ShardClassifier building all of them.
func ShardOne(cls *core.Classifier, n, i int, samples [][]float32, cfg core.Config, opt core.TrainOptions) (Shard, error) {
	off, end, err := ShardRange(cls.Categories(), n, i)
	if err != nil {
		return Shard{}, err
	}
	sub := &tensor.Matrix{
		Rows: end - off,
		Cols: cls.Hidden(),
		Data: cls.W.Data[off*cls.Hidden() : end*cls.Hidden()],
	}
	subCls, err := core.NewClassifier(sub, cls.B[off:end])
	if err != nil {
		return Shard{}, err
	}
	shardCfg := cfg
	shardCfg.Categories = end - off
	shardCfg.Seed = cfg.Seed + uint64(off)
	scr, _, err := core.TrainScreener(subCls, samples, shardCfg, opt)
	if err != nil {
		return Shard{}, err
	}
	return Shard{Offset: off, Classifier: subCls, Screener: scr}, nil
}

// ShardClassifier splits a global classifier into n row-contiguous
// shards and trains a screener per shard on the given samples.
func ShardClassifier(cls *core.Classifier, n int, samples [][]float32, cfg core.Config, opt core.TrainOptions) ([]Shard, error) {
	if n <= 0 {
		return nil, fmt.Errorf("distributed: non-positive shard count %d", n)
	}
	l := cls.Categories()
	if n > l {
		return nil, fmt.Errorf("distributed: more shards (%d) than classes (%d)", n, l)
	}
	count := ShardCount(l, n)
	shards := make([]Shard, 0, count)
	for i := 0; i < count; i++ {
		sh, err := ShardOne(cls, n, i, samples, cfg, opt)
		if err != nil {
			return nil, err
		}
		shards = append(shards, sh)
	}
	return shards, nil
}
