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
// cache) → merge → rank. Its greedy token is bit-identical to
// core.ClassifyApproxInto + Result.Predict for the same (h, m): the
// stages run in the same order with the same kernels, and the cache
// only relocates bytes (see rowCache).
type LocalScorer struct {
	cls *core.Classifier
	scr *core.Screener
	sc  *core.Scratch

	cache        *rowCache
	lazyCacheMul int
	verifyEvery  int
	step         int

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
	// CacheSlots sizes the candidate cache arena (rows). 0 → 4× the
	// largest m the session will use, set lazily on first step.
	// Negative disables the cache entirely (the exact recompute then
	// gathers from the classifier every step — the uncached reference
	// path the bit-identity tests compare against).
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
	switch {
	case cfg.CacheSlots < 0:
		// Cache disabled: every step gathers from the classifier.
	case cfg.CacheSlots == 0:
		// Sized on first step, once the session's m is known.
		s.lazyCacheMul = 4
	default:
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
	if s.cache == nil && s.lazyCacheMul > 0 {
		s.cache = newRowCache(s.cls, s.lazyCacheMul*m)
		s.lazyCacheMul = 0
	}
	// Stages mirror core.classifyInto exactly — screen, select top-m,
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
