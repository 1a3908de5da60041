package decode

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"enmc/internal/workload"
)

// Config tunes the decode service. Zero values select defaults.
type Config struct {
	// MaxSessions is the admission limit; Open returns
	// ErrSessionLimit (HTTP 429 upstream) beyond it. Default 256.
	MaxSessions int
	// TTL evicts sessions idle longer than this; the eviction scan
	// runs every TTL/4, at least 1ms apart. Default 60s.
	TTL time.Duration
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
	if c.TTL <= 0 {
		c.TTL = 60 * time.Second
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

// Service is the session manager: admission, lookup, TTL eviction,
// drain. One Service fronts one decoder + scorer family.
type Service struct {
	cfg       Config
	dec       *workload.Decoder
	newScorer func() Scorer

	mu       sync.Mutex
	sessions map[string]*Session
	closed   bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewService builds a service over a decoder; newScorer is invoked
// once per session (each session owns its scorer's mutable state).
func NewService(cfg Config, dec *workload.Decoder, newScorer func() Scorer) *Service {
	cfg.defaults()
	s := &Service{
		cfg:       cfg,
		dec:       dec,
		newScorer: newScorer,
		sessions:  make(map[string]*Session),
		stop:      make(chan struct{}),
	}
	s.wg.Add(1)
	go s.sweep()
	return s
}

// MaxLen returns the decoder's maximum sequence length.
func (s *Service) MaxLen() int { return s.dec.MaxLen() }

// Hidden returns the decoder's hidden dimension.
func (s *Service) Hidden() int { return s.dec.Hidden() }

func newSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// Open admits a new session seeded from h0. Width is clamped to
// [1, MaxWidth] and ignored for greedy sessions.
func (s *Service) Open(mode Mode, width int, h0 []float32) (*Session, error) {
	return s.OpenOwned(mode, width, h0, nil)
}

// OpenOwned is Open with an owner-accounting hook: release, when
// non-nil, is invoked exactly once when the session leaves the
// service (explicit close, TTL eviction, or shutdown) — never on a
// failed open. It lets a caller count live sessions against a
// per-tenant quota without missing evictions the caller never sees.
func (s *Service) OpenOwned(mode Mode, width int, h0 []float32, release func()) (*Session, error) {
	if mode != Greedy && mode != Beam {
		return nil, fmt.Errorf("decode: unknown mode %q", mode)
	}
	if len(h0) != s.dec.Hidden() {
		return nil, fmt.Errorf("decode: h0 has %d dims, want %d", len(h0), s.dec.Hidden())
	}
	if width < 1 {
		width = 1
	}
	if width > s.cfg.MaxWidth {
		width = s.cfg.MaxWidth
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrEvicted
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		mSessionLimit.Inc()
		return nil, ErrSessionLimit
	}
	d := s.dec.Hidden()
	sess := &Session{
		ID:     newSessionID(),
		svc:    s,
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
	sess.releaseOwner = release
	sess.touch()
	s.sessions[sess.ID] = sess
	mSessionsOpened.Inc()
	mSessionsActive.Add(1)
	return sess, nil
}

// released runs a removed session's owner hook (exactly once per
// session: every removal path deletes from the map first).
func released(sess *Session) {
	if sess.releaseOwner != nil {
		sess.releaseOwner()
	}
}

// Get looks a session up by ID.
func (s *Service) Get(id string) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, ErrNotFound
	}
	return sess, nil
}

// Close removes and finalizes a session. An in-flight pump notices
// the eviction flag at its next token and exits with ErrEvicted.
func (s *Service) Close(id string) error {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	sess.evict()
	released(sess)
	return nil
}

// Active returns the number of admitted sessions.
func (s *Service) Active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Shutdown evicts every session and stops the sweeper. Safe to call
// more than once.
func (s *Service) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	victims := make([]*Session, 0, len(s.sessions))
	for id, sess := range s.sessions {
		victims = append(victims, sess)
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	close(s.stop)
	for _, sess := range victims {
		sess.evict()
		released(sess)
	}
	s.wg.Wait()
}

// sweep is the TTL evictor. It never blocks on a session: eviction is
// flag + CAS, and a pump that holds the session finalizes it itself.
func (s *Service) sweep() {
	defer s.wg.Done()
	t := time.NewTicker(max(s.cfg.TTL/4, time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		deadline := time.Now().Add(-s.cfg.TTL).UnixNano()
		s.mu.Lock()
		var victims []*Session
		for id, sess := range s.sessions {
			if sess.lastUsed.Load() < deadline {
				victims = append(victims, sess)
				delete(s.sessions, id)
			}
		}
		s.mu.Unlock()
		for _, sess := range victims {
			sess.evict()
			released(sess)
			mSessionsEvicted.Inc()
		}
	}
}
