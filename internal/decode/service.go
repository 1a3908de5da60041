package decode

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"enmc/internal/workload"
)

// Config tunes the decode service. Zero values select defaults.
type Config struct {
	// MaxSessions is the admission limit; Open returns
	// ErrSessionLimit (HTTP 429 upstream) beyond it. Default 256.
	MaxSessions int
	// TokenBudget is the per-token deadline driving the degradation
	// ladder; 0 disables the ladder.
	TokenBudget time.Duration
	// TopM is the candidate budget at full quality. Default 24.
	TopM int
	// MFloor bounds how far the ladder may degrade m.
	// Default max(4, TopM/4).
	MFloor int
	// MaxWidth caps requested beam widths. Default 8.
	MaxWidth int
}

func (c *Config) defaults() {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.TopM <= 0 {
		c.TopM = 24
	}
	if c.MFloor <= 0 {
		c.MFloor = c.TopM / 4
		if c.MFloor < 4 {
			c.MFloor = 4
		}
	}
	if c.MFloor > c.TopM {
		c.MFloor = c.TopM
	}
	if c.MaxWidth <= 0 {
		c.MaxWidth = 8
	}
}

// Service is the session manager: admission and drain. One Service
// fronts one decoder + scorer family. A session belongs to the
// goroutine that opened it, which runs it and then closes it.
type Service struct {
	cfg       Config
	dec       *workload.Decoder
	newScorer func() Scorer

	// shut is set once by Shutdown; Open refuses, and every session's
	// Run stops, once it is.
	shut atomic.Bool

	mu       sync.Mutex
	sessions map[uint64]*Session
	nextID   uint64
}

// NewService builds a service over a decoder; newScorer is invoked
// once per session (each session owns its scorer's mutable state).
func NewService(cfg Config, dec *workload.Decoder, newScorer func() Scorer) *Service {
	cfg.defaults()
	return &Service{
		cfg:       cfg,
		dec:       dec,
		newScorer: newScorer,
		sessions:  make(map[uint64]*Session),
	}
}

// MaxLen returns the decoder's maximum sequence length.
func (s *Service) MaxLen() int { return s.dec.MaxLen() }

// Open admits a new session seeded from h0. Width is clamped to
// [1, MaxWidth] and ignored for greedy sessions. The caller owns the
// session and must Close it.
func (s *Service) Open(mode Mode, width int, h0 []float32) (*Session, error) {
	if mode != Greedy && mode != Beam {
		return nil, fmt.Errorf("decode: unknown mode %q", mode)
	}
	if len(h0) != s.dec.Hidden() {
		return nil, fmt.Errorf("decode: h0 has %d dims, want %d", len(h0), s.dec.Hidden())
	}
	width = min(max(width, 1), s.cfg.MaxWidth)
	if s.shut.Load() {
		return nil, ErrEvicted
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sessions) >= s.cfg.MaxSessions {
		mSessionLimit.Inc()
		return nil, ErrSessionLimit
	}
	d := s.dec.Hidden()
	s.nextID++
	sess := &Session{
		ID:     s.nextID,
		shut:   &s.shut,
		dec:    s.dec,
		scorer: s.newScorer(),
		mode:   mode,
		width:  width,
		m:      s.cfg.TopM,
		topM:   s.cfg.TopM,
		mFloor: s.cfg.MFloor,
		budget: s.cfg.TokenBudget,
	}
	if mode == Beam {
		sess.beam = newBeamState(width, d, s.dec.MaxLen())
		s.dec.NormalizeStartInto(sess.beam.states[:d], h0)
	} else {
		sess.h = make([]float32, d)
		sess.hNext = make([]float32, d)
		s.dec.NormalizeStartInto(sess.h, h0)
	}
	s.sessions[sess.ID] = sess
	mSessionsOpened.Inc()
	mSessionsActive.Add(1)
	return sess, nil
}

// Close removes a session and closes its scorer: the one place a
// session leaves the service. Only the session's owner calls it, once
// it has stopped running the session.
func (s *Service) Close(id uint64) error {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	sess.scorer.Close()
	mSessionsActive.Add(-1)
	return nil
}

// Active returns the number of admitted sessions.
func (s *Service) Active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Shutdown refuses new sessions and ends the running ones: each stops
// at its next token with ErrEvicted, and its owner closes it. Safe to
// call more than once.
func (s *Service) Shutdown() { s.shut.Store(true) }
