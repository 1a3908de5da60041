package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Versioned is implemented by backends that know which registry
// model version they serve. The serving layer surfaces it in
// /v1/model and as "model_version" on every response.
type Versioned interface {
	ModelVersion() string
}

// SkewReporter is implemented by backends whose shards can be on
// different model versions at once (independent shard reloads); the
// serving layer surfaces it per-response as "version_skew".
type SkewReporter interface {
	VersionSkew() bool
}

// taggedBackend lets a backend report exactly which model version
// served a batch — Swappable implements it so a response's
// model_version is the version that actually computed it, not
// whatever is active by the time the reply is written.
type taggedBackend interface {
	classifyBatchTagged(ctx context.Context, batch [][]float32, m, topK int) ([]Outcome, string, error)
}

// classifyTagged runs a batch and returns the serving model version
// and partial-degradation state alongside the outcomes. The version
// is exact for tagged backends and best-effort (read after the call)
// otherwise; Partial is populated for PartialBackend implementations
// (the cluster router) and zero for everything else.
func classifyTagged(ctx context.Context, b Backend, batch [][]float32, m, topK int) ([]Outcome, string, Partial, error) {
	if tb, ok := b.(taggedBackend); ok {
		outs, version, err := tb.classifyBatchTagged(ctx, batch, m, topK)
		return outs, version, Partial{}, err
	}
	if pb, ok := b.(PartialBackend); ok {
		outs, partial, err := pb.ClassifyBatchPartial(ctx, batch, m, topK)
		return outs, versionOf(b), partial, err
	}
	outs, err := b.ClassifyBatch(ctx, batch, m, topK)
	return outs, versionOf(b), Partial{}, err
}

// versionOf reports b's model version, or "" for unversioned
// backends.
func versionOf(b Backend) string {
	if v, ok := b.(Versioned); ok {
		return v.ModelVersion()
	}
	return ""
}

// slot is one installed backend plus its drain bookkeeping. refs
// starts at 1 (the installation reference); every in-flight batch
// holds one more. When the slot has been swapped out AND its last
// batch finishes, refs hits zero and retire fires exactly once —
// the "old version retired only after its last reference drains"
// ordering the lifecycle manager logs and tests assert on.
type slot struct {
	backend Backend
	version string
	refs    atomic.Int64
	retire  func(version string)
}

// tag is the version label responses carry: the Swap-installed one,
// or the inner backend's own when the slot has none.
func (s *slot) tag() string {
	if s.version != "" {
		return s.version
	}
	return versionOf(s.backend)
}

func (s *slot) release() {
	if s.refs.Add(-1) == 0 && s.retire != nil {
		s.retire(s.version)
	}
}

// Swappable wraps a Backend behind an atomically swappable,
// reference-counted slot: Swap installs a new model for all future
// admissions while in-flight batches finish on the version they
// started on. The acquire path is a read-lock plus one atomic add —
// nothing on it allocates, so the steady-state classify path stays
// allocation-free.
type Swappable struct {
	mu  sync.RWMutex
	cur *slot
}

// NewSwappable wraps backend as the initial version.
func NewSwappable(backend Backend, version string) (*Swappable, error) {
	if backend == nil {
		return nil, fmt.Errorf("server: nil backend")
	}
	s := &Swappable{cur: &slot{backend: backend, version: version}}
	s.cur.refs.Store(1)
	return s, nil
}

// acquire pins the current slot for one batch. The read lock makes
// the load+refcount pair atomic against Swap, so retire can never
// fire while a batch that observed the slot is still running.
func (s *Swappable) acquire() *slot {
	s.mu.RLock()
	sl := s.cur
	sl.refs.Add(1)
	s.mu.RUnlock()
	return sl
}

// Swap atomically installs a new backend for all future admissions
// and returns the previous version. In-flight batches finish on the
// old backend; onRetire (optional) runs once its last reference
// drains. The new backend must match the current shapes — the
// serving layer validated requests and sized its budgets against
// them, so a shape-changing swap needs a new server, not a hot swap.
func (s *Swappable) Swap(backend Backend, version string, onRetire func(version string)) (prev string, err error) {
	if backend == nil {
		return "", fmt.Errorf("server: swap to nil backend")
	}
	next := &slot{backend: backend, version: version}
	next.refs.Store(1)

	s.mu.Lock()
	old := s.cur
	if backend.Hidden() != old.backend.Hidden() || backend.Categories() != old.backend.Categories() {
		s.mu.Unlock()
		return "", fmt.Errorf("server: swap shape %dx%d does not match serving %dx%d",
			backend.Categories(), backend.Hidden(), old.backend.Categories(), old.backend.Hidden())
	}
	// The callback belongs to the slot being swapped OUT: it fires
	// when the old version's last reference drains. Written under the
	// lock, before the installation reference is dropped, so the
	// draining release always observes it.
	old.retire = onRetire
	s.cur = next
	s.mu.Unlock()

	old.release() // drop the installation reference; retire fires at drain
	return old.version, nil
}

// ClassifyBatch implements Backend: the whole batch runs on one
// pinned model version.
func (s *Swappable) ClassifyBatch(ctx context.Context, batch [][]float32, m, topK int) ([]Outcome, error) {
	outs, _, err := s.classifyBatchTagged(ctx, batch, m, topK)
	return outs, err
}

func (s *Swappable) classifyBatchTagged(ctx context.Context, batch [][]float32, m, topK int) ([]Outcome, string, error) {
	sl := s.acquire()
	defer sl.release()
	outs, err := sl.backend.ClassifyBatch(ctx, batch, m, topK)
	return outs, sl.tag(), err
}

// Hidden implements Backend.
func (s *Swappable) Hidden() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cur.backend.Hidden()
}

// Categories implements Backend.
func (s *Swappable) Categories() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cur.backend.Categories()
}

// ModelVersion implements Versioned: the Swap-installed version, or
// the inner backend's own when the slot has none.
func (s *Swappable) ModelVersion() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cur.tag()
}

// VersionSkew implements SkewReporter by delegating to the inner
// backend (a wrapped cluster router can be mid-rollout even when the
// wrapper itself swaps atomically).
func (s *Swappable) VersionSkew() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if sr, ok := s.cur.backend.(SkewReporter); ok {
		return sr.VersionSkew()
	}
	return false
}
