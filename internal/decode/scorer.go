package decode

import (
	"context"
	"math"

	"enmc/internal/activation"
	"enmc/internal/core"
	"enmc/internal/tensor"
)

// StepScore is one decode step's classifier output: the top-k classes
// of the mixed (screened + exact-on-candidates) logit vector in
// descending order — Classes[0] is the greedy token — with their
// log-probabilities under the mixed softmax. Slices alias
// scorer-owned storage and stay valid only until the next ScoreStep.
type StepScore struct {
	Classes  []int
	LogProbs []float64
	// M is the candidate budget actually used this step (the deadline
	// ladder may have degraded it below the configured top-m).
	M int
	// CacheHits/CacheMisses report the candidate cache's behaviour on
	// this step (zero when the scorer has no cache, e.g. cluster mode).
	CacheHits, CacheMisses int
}

// Scorer produces per-token scores for a decode session. m is the
// candidate budget (top-m survivors recomputed exactly), k how many
// ranked classes the caller needs (1 for greedy, beam width for beam
// search). Implementations are single-session: they own mutable
// per-step state and must not be shared across goroutines.
type Scorer interface {
	ScoreStep(ctx context.Context, h []float32, m, k int) (StepScore, error)
	Close()
}

// LocalScorer runs the full screening pipeline in-process: screen →
// select top-m → exact recompute (through the hot-class candidate
// cache, when one is configured) → merge → rank. Its greedy token is
// bit-identical to core.ClassifyApproxInto + Result.Predict for the
// same (h, m): the stages run in the same order with the same
// arithmetic, and the cache only relocates bytes (see rowCache).
type LocalScorer struct {
	cls *core.Classifier
	scr *core.Screener
	sc  *core.Scratch

	cache       *rowCache
	verifyEvery int
	step        int

	mixed   []float32
	exact   []float32
	ref     []float32
	classes []int
	lps     []float64
	buf     tensor.TopKBuf
}

// LocalScorerConfig tunes a LocalScorer. Zero values select sensible
// defaults.
type LocalScorerConfig struct {
	// CacheSlots sizes the candidate cache arena (rows). Zero or
	// negative means no cache: the exact recompute gathers straight
	// from the classifier every step, on tensor's gather kernel. That
	// is the default because the cache is measured speed-neutral
	// (0.97–0.98×) while its arena costs 4·slots·d bytes per session
	// and its row-at-a-time scoring bypasses the kernel.
	CacheSlots int
	// VerifyEvery recomputes the candidate logits from the classifier
	// every n-th step and compares bit-for-bit with the cached values;
	// a mismatch resets the cache and uses the reference. 0 → 64.
	// Negative disables verification.
	VerifyEvery int
}

// NewLocalScorer builds a scorer over an in-process model. Call Close
// to return the pooled scratch.
func NewLocalScorer(cls *core.Classifier, scr *core.Screener, cfg LocalScorerConfig) *LocalScorer {
	s := &LocalScorer{
		cls:         cls,
		scr:         scr,
		sc:          core.GetScratch(),
		verifyEvery: cfg.VerifyEvery,
		mixed:       make([]float32, cls.Categories()),
	}
	if s.verifyEvery == 0 {
		s.verifyEvery = 64
	}
	if cfg.CacheSlots > 0 {
		s.cache = newRowCache(cls, cfg.CacheSlots)
	}
	return s
}

func (s *LocalScorer) Close() {
	if s.sc != nil {
		s.sc.Release()
		s.sc = nil
	}
}

// ScoreStep implements Scorer.
func (s *LocalScorer) ScoreStep(_ context.Context, h []float32, m, k int) (StepScore, error) {
	// Stages mirror core.ClassifyApproxInto exactly — screen, select top-m,
	// ascending-index exact recompute, merge — so the mixed vector
	// (and hence the greedy argmax and any top-k of it) matches the
	// single-shot serving path bit for bit.
	s.scr.ScreenInto(s.mixed, h, s.sc)
	cands := core.SelectCandidatesInto(s.mixed, core.TopM(m), s.sc)
	if cap(s.exact) < len(cands) {
		s.exact = make([]float32, len(cands))
	}
	exact := s.exact[:len(cands)]

	var hits, misses int
	if s.cache != nil {
		hits, misses = s.cache.logitsInto(exact, cands, h)
		s.step++
		if s.verifyEvery > 0 && s.step%s.verifyEvery == 0 {
			s.verify(exact, cands, h)
		}
	} else {
		s.cls.LogitsRowsInto(exact, cands, h)
	}
	for j, c := range cands {
		s.mixed[c] = exact[j]
	}

	lse := activation.LogSumExp(s.mixed)
	idx := tensor.TopKInto(s.mixed, k, &s.buf)
	if cap(s.classes) < len(idx) {
		s.classes = make([]int, len(idx))
		s.lps = make([]float64, len(idx))
	}
	classes, lps := s.classes[:len(idx)], s.lps[:len(idx)]
	for i, c := range idx {
		classes[i] = c
		lps[i] = float64(s.mixed[c]) - lse
	}
	return StepScore{
		Classes: classes, LogProbs: lps,
		M: m, CacheHits: hits, CacheMisses: misses,
	}, nil
}

// verify recomputes the candidate logits straight from the classifier
// and compares bit-for-bit with what the cache produced. Agreement is
// the invariant the whole cached path rests on; a mismatch (which
// would indicate cache corruption or an aliasing bug, not float
// noise — the kernels are deterministic) resets the cache and repairs
// the step from the reference values.
func (s *LocalScorer) verify(exact []float32, cands []int, h []float32) {
	if cap(s.ref) < len(cands) {
		s.ref = make([]float32, len(cands))
	}
	ref := s.ref[:len(cands)]
	s.cls.LogitsRowsInto(ref, cands, h)
	for j := range ref {
		if math.Float32bits(ref[j]) != math.Float32bits(exact[j]) {
			mCacheVerifyBad.Inc()
			s.cache.reset()
			copy(exact, ref)
			return
		}
	}
	mCacheVerified.Inc()
}
