// Package distributed is the class partition and merge behind the
// scale-out the paper sketches in its related-work discussion: "our
// design can scale-out from single-node to distributed nodes, where
// each node keeps an approximate screener". Classes are sharded
// row-wise across nodes (ShardRange, ShardOne, ShardClassifier): a
// node holds rows [off,end) of the model's one classifier and one
// screener, screens them, recomputes its local candidates exactly,
// and ships only the candidate (class, logit) pairs to an aggregator
// that merges the global top-k (Merge) — the same decomposition
// capacity-driven recommendation inference uses (Lui et al., ISPASS
// 2021). Classify runs that scatter in process; it is the reference
// the networked cluster router must match bit for bit. The scale-out
// performance model lives with its experiment
// (experiments.ExtScaleOut).
package distributed

import (
	"cmp"
	"fmt"
	"slices"

	"enmc/internal/core"
	"enmc/internal/quant"
	"enmc/internal/tensor"
)

// Shard is one node's slice of the class space: rows [Offset,
// Offset+Classifier.Categories) of the model's classifier and of its
// screener.
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
// networked cluster router; the pool must not repeat a class (shards
// are disjoint, and the router refuses a reply that repeats one).
func Merge(cands []Candidate, topK int) []Candidate {
	slices.SortFunc(cands, func(a, b Candidate) int {
		if c := cmp.Compare(b.Logit, a.Logit); c != 0 {
			return c
		}
		return cmp.Compare(a.Class, b.Class)
	})
	if topK > 0 && len(cands) > topK {
		cands = cands[:topK]
	}
	return cands
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

// ShardOne builds shard i of an n-way split of the model (cls, scr):
// rows [off,end) of the classifier and of the screener's quantized
// weights, scales and bias, under the screener's one projection P.
// A shard trains nothing: it screens exactly its rows of what the
// whole screener screens.
// The shard owns copies of its rows (the classifier's through
// tensor.NewMatrix, so huge-page advice applies): a worker that keeps
// only its shard lets the rest of the model go.
func ShardOne(cls *core.Classifier, scr *core.Screener, n, i int) (Shard, error) {
	l, d := cls.Categories(), cls.Hidden()
	if scr.Cfg.Categories != l || scr.Cfg.Hidden != d {
		return Shard{}, fmt.Errorf("distributed: screener l=%d d=%d for a %dx%d classifier",
			scr.Cfg.Categories, scr.Cfg.Hidden, l, d)
	}
	if scr.QW == nil {
		return Shard{}, fmt.Errorf("distributed: screener not frozen")
	}
	off, end, err := ShardRange(l, n, i)
	if err != nil {
		return Shard{}, err
	}
	w := tensor.NewMatrix(end-off, d)
	copy(w.Data, cls.W.Data[off*d:end*d])
	subCls, err := core.NewClassifier(w, slices.Clone(cls.B[off:end]))
	if err != nil {
		return Shard{}, err
	}
	q := scr.QW
	stride := quant.PayloadBytes(q.Bits, 1, q.Cols)
	qw, err := quant.FromPayload(q.Bits, end-off, q.Cols, slices.Clone(q.Scales[off:end]),
		slices.Clone(q.Payload()[off*stride:end*stride]))
	if err != nil {
		return Shard{}, err
	}
	cfg := scr.Cfg
	cfg.Categories = end - off
	subScr := &core.Screener{Cfg: cfg, P: scr.P, Bt: slices.Clone(scr.Bt[off:end]), QW: qw}
	return Shard{Offset: off, Classifier: subCls, Screener: subScr}, nil
}

// ShardClassifier splits the model (cls, scr) into n row-contiguous
// shards (see ShardOne).
func ShardClassifier(cls *core.Classifier, scr *core.Screener, n int) ([]Shard, error) {
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
		sh, err := ShardOne(cls, scr, n, i)
		if err != nil {
			return nil, err
		}
		shards = append(shards, sh)
	}
	return shards, nil
}
