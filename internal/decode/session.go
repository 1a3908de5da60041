package decode

import (
	"context"
	"errors"
	"sort"
	"sync/atomic"
	"time"

	"enmc/internal/workload"
)

// Mode selects the search the session runs.
type Mode string

const (
	Greedy Mode = "greedy"
	Beam   Mode = "beam"
)

var (
	// ErrEvicted: the service was shut down under the session.
	ErrEvicted = errors.New("decode: session evicted")
	// ErrSessionLimit: the service is at max-session admission.
	ErrSessionLimit = errors.New("decode: session limit reached")
	// ErrNotFound: no session with that ID.
	ErrNotFound = errors.New("decode: no such session")
)

// Token is one emitted decode frame.
type Token struct {
	Step     int
	Token    int
	LogProb  float64
	M        int
	Degraded bool
}

// Session is one decode stream: it owns the hidden state (and beam),
// the scorer (with its pooled scratch, and a candidate cache only if
// its config sizes one), and the per-token deadline ladder. One goroutine owns a session: it opens,
// runs and closes it. Only the service's shutdown flag is shared.
type Session struct {
	ID uint64

	shut *atomic.Bool // the service's: set, Run stops at the next token

	dec    *workload.Decoder
	scorer Scorer
	mode   Mode
	width  int

	h      []float32
	hNext  []float32
	tokens []int
	beam   *beamState
	step   int

	// Deadline ladder state: an EWMA of step latency drives the
	// candidate budget m between mFloor and topM.
	m      int
	topM   int
	mFloor int
	budget time.Duration
	ewma   float64

	cacheHits   int64
	cacheMisses int64
}

// Step returns how many tokens the session has emitted.
func (s *Session) Step() int { return s.step }

// Tokens returns a copy of the emitted sequence — for beam sessions,
// the current best hypothesis.
func (s *Session) Tokens() []int { return append([]int(nil), s.tokens...) }

// CacheStats returns cumulative candidate-cache hits and misses.
func (s *Session) CacheStats() (hits, misses int64) { return s.cacheHits, s.cacheMisses }

// Run pumps up to n tokens through the session, invoking emit for
// each. It returns finished=true when the decoder's MaxLen is
// reached. ErrEvicted means the service shut down mid-stream — the
// emitted prefix is still valid.
func (s *Session) Run(ctx context.Context, n int, emit func(Token) error) (finished bool, err error) {
	for i := 0; i < n; i++ {
		if s.step >= s.dec.MaxLen() {
			return true, nil
		}
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if s.shut.Load() {
			return false, ErrEvicted
		}
		t0 := time.Now()
		tok, err := s.stepOnce(ctx)
		if err != nil {
			return false, err
		}
		s.observe(time.Since(t0))
		mTokens.Inc()
		if err := emit(tok); err != nil {
			return false, err
		}
	}
	return s.step >= s.dec.MaxLen(), nil
}

// observe feeds one step latency into the deadline ladder: when the
// smoothed latency eats >80% of the per-token budget the candidate
// budget m drops a notch toward the floor (degrading screening
// quality before missing the token deadline); when it falls back
// under 40% m recovers toward the configured top-m. An actual
// overrun is counted separately.
func (s *Session) observe(lat time.Duration) {
	mTokenNs.Observe(float64(lat.Nanoseconds()))
	if s.budget <= 0 {
		return
	}
	const alpha = 0.3
	if s.ewma == 0 {
		s.ewma = float64(lat.Nanoseconds())
	} else {
		s.ewma = (1-alpha)*s.ewma + alpha*float64(lat.Nanoseconds())
	}
	if lat > s.budget {
		mDeadlineMiss.Inc()
	}
	b := float64(s.budget.Nanoseconds())
	switch {
	case s.ewma > 0.8*b && s.m > s.mFloor:
		s.m = s.m * 3 / 4
		if s.m < s.mFloor {
			s.m = s.mFloor
		}
		mDeadlineDown.Inc()
	case s.ewma < 0.4*b && s.m < s.topM:
		s.m = s.m*4/3 + 1
		if s.m > s.topM {
			s.m = s.topM
		}
	}
}

func (s *Session) stepOnce(ctx context.Context) (Token, error) {
	if s.mode == Beam {
		return s.stepBeam(ctx)
	}
	sc, err := s.scorer.ScoreStep(ctx, s.h, s.m, 1)
	if err != nil {
		return Token{}, err
	}
	if len(sc.Classes) == 0 {
		return Token{}, errors.New("decode: scorer returned no classes")
	}
	y, lp := sc.Classes[0], sc.LogProbs[0]
	s.cacheHits += int64(sc.CacheHits)
	s.cacheMisses += int64(sc.CacheMisses)
	s.dec.StepInto(s.hNext, s.h, y, s.step)
	s.h, s.hNext = s.hNext, s.h
	s.tokens = append(s.tokens, y)
	tok := Token{Step: s.step, Token: y, LogProb: lp, M: sc.M, Degraded: s.m < s.topM}
	s.step++
	return tok, nil
}

// beamState keeps the live hypotheses in flat arenas, expanded and
// pruned in place each step. The emitted frame is the best
// hypothesis's newest token; the stream's final sequence is the best
// hypothesis at the last step (so earlier frames are provisional, as
// in any streamed beam search — documented in the API).
type beamState struct {
	width, d, maxLen int
	n                int       // live hypotheses
	tokens           []int     // width × maxLen
	states           []float32 // width × d
	lps              []float64 // cumulative per hypothesis

	nextTokens []int
	nextStates []float32
	nextLps    []float64

	cands []beamCand
}

type beamCand struct {
	parent, class int
	lp, stepLp    float64
}

func newBeamState(width, d, maxLen int) *beamState {
	return &beamState{
		width: width, d: d, maxLen: maxLen, n: 1,
		tokens:     make([]int, width*maxLen),
		states:     make([]float32, width*d),
		lps:        make([]float64, width),
		nextTokens: make([]int, width*maxLen),
		nextStates: make([]float32, width*d),
		nextLps:    make([]float64, width),
		cands:      make([]beamCand, 0, width*width),
	}
}

func (s *Session) stepBeam(ctx context.Context) (Token, error) {
	b := s.beam
	b.cands = b.cands[:0]
	for i := 0; i < b.n; i++ {
		sc, err := s.scorer.ScoreStep(ctx, b.states[i*b.d:(i+1)*b.d], s.m, b.width)
		if err != nil {
			return Token{}, err
		}
		s.cacheHits += int64(sc.CacheHits)
		s.cacheMisses += int64(sc.CacheMisses)
		for j, c := range sc.Classes {
			if j >= b.width {
				break
			}
			b.cands = append(b.cands, beamCand{
				parent: i, class: c,
				lp: b.lps[i] + sc.LogProbs[j], stepLp: sc.LogProbs[j],
			})
		}
	}
	if len(b.cands) == 0 {
		return Token{}, errors.New("decode: beam collapsed")
	}
	// Deterministic order: score desc, ties by parent then class.
	sort.Slice(b.cands, func(a, c int) bool {
		x, y := b.cands[a], b.cands[c]
		if x.lp != y.lp {
			return x.lp > y.lp
		}
		if x.parent != y.parent {
			return x.parent < y.parent
		}
		return x.class < y.class
	})
	keep := len(b.cands)
	if keep > b.width {
		keep = b.width
	}
	t := s.step
	for r := 0; r < keep; r++ {
		c := b.cands[r]
		copy(b.nextTokens[r*b.maxLen:r*b.maxLen+t], b.tokens[c.parent*b.maxLen:c.parent*b.maxLen+t])
		b.nextTokens[r*b.maxLen+t] = c.class
		s.dec.StepInto(b.nextStates[r*b.d:(r+1)*b.d], b.states[c.parent*b.d:(c.parent+1)*b.d], c.class, t)
		b.nextLps[r] = c.lp
	}
	b.tokens, b.nextTokens = b.nextTokens, b.tokens
	b.states, b.nextStates = b.nextStates, b.states
	b.lps, b.nextLps = b.nextLps, b.lps
	b.n = keep

	best := b.cands[0]
	s.step++
	// Mirror the best hypothesis into s.tokens so Tokens()/done frames
	// see it without knowing about the beam.
	s.tokens = append(s.tokens[:0], b.tokens[:s.step]...)
	return Token{Step: t, Token: best.class, LogProb: best.stepLp, M: s.m, Degraded: s.m < s.topM}, nil
}

// BestLogProb returns the cumulative log-probability of the best
// hypothesis (greedy: sum of emitted log-probs is not tracked — beam
// only; greedy returns 0).
func (s *Session) BestLogProb() float64 {
	if s.beam != nil && s.beam.n > 0 {
		return s.beam.lps[0]
	}
	return 0
}
