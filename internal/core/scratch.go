package core

import (
	"runtime"
	"sync"

	"enmc/internal/quant"
	"enmc/internal/tensor"
)

// Scratch is a per-worker arena for the approximate-classification
// hot path. A query at Amazon-670K scale needs an l-sized logits
// vector (~2.7 MB; a batch worker keeps one per item of its tile), a
// projected feature, a quantized feature, a candidate-selection
// buffer and an exact-logits buffer; allocating
// those per request turns a saturated server into a garbage
// generator. A Scratch owns all of them and is recycled through a
// sync.Pool, so the steady-state classify path allocates nothing.
//
// Ownership rules (see DESIGN.md §4):
//
//   - Whoever calls GetScratch calls Release — typically once per
//     worker goroutine around a batch of queries, not per query.
//   - Results produced through a Scratch (ClassifyApproxInto, the
//     ClassifyBatchVisitCtx callback) alias the arena: they are valid
//     only until the next pipeline call on the same Scratch or its
//     Release, whichever comes first. Copy out anything you keep.
//   - A Scratch is single-goroutine; concurrency comes from checking
//     out one per worker, never from sharing.
type Scratch struct {
	// MaxShards caps intra-query parallelism for pipelines run
	// through this scratch: 1 forces the fully serial — and
	// allocation-free — path, 0 picks a GOMAXPROCS-based shard count
	// for large category counts. Batch drivers set it so that
	// (workers × shards) ≈ GOMAXPROCS; a saturated server therefore
	// runs serial per-query kernels while a single idle query fans
	// its GEMV across every core.
	MaxShards int

	projected []float32      // P·h, length k
	qs        []quant.Vector // quantized projected features, one per item screened together
	// mixed holds screen/mixed logits for arena-backed results, length
	// l each: [0] serves single queries, a batch tile uses one per item.
	mixed [quant.BatchTile][]float32
	exact []float32 // exact candidate logits, length m
	cands []int     // threshold-selection candidate storage
	sel   tensor.TopKBuf
	// maybeNaN is false when the last selection proved the screened
	// logits free of NaNs (see Result.Floor).
	maybeNaN bool
	post     tensor.TopKBuf // post-classify ranking, see TopK and RankMixed
	res      Result         // arena-backed result header
}

var scratchPool = sync.Pool{New: func() interface{} { return new(Scratch) }}

// GetScratch checks a Scratch out of the process-wide pool. MaxShards
// is reset to 0 (auto); everything else keeps its grown capacity.
func GetScratch() *Scratch {
	sc := scratchPool.Get().(*Scratch)
	sc.MaxShards = 0
	return sc
}

// Release returns the scratch to the pool. The caller must not touch
// the scratch — or any arena-backed Result obtained through it —
// afterwards.
func (s *Scratch) Release() { scratchPool.Put(s) }

// TopK selects the k largest entries of x (descending, ties toward
// lower index) using the scratch's post-classify selection buffer —
// for consumers that rank an arena-backed Result's mixed logits, e.g.
// the serving layer's per-response top-k. The returned slice is valid
// until the next TopK call on this scratch.
func (s *Scratch) TopK(x []float32, k int) []int {
	return tensor.TopKInto(x, k, &s.post)
}

// RankMixed returns what tensor.TopKInto(r.Mixed, k) returns — the k
// largest mixed logits, descending, ties toward the lower index — for
// a Result whose Candidates ascend (every pipeline result's do). When
// the k-th largest of the m exact logits is strictly above r.Floor,
// which bounds every non-candidate, and none of them is NaN, those k
// candidates are the answer and only the m exact logits are ranked;
// otherwise all l mixed logits are, and
// core.classify.rank_full_sweep is bumped. On a NaN-free answer the
// head is also r.Predict() (same tie rule), so k = 1 finds the class.
// The returned slice is valid until the next RankMixed or TopK call on
// this scratch.
func (s *Scratch) RankMixed(r *Result, k int) []int {
	if k <= 0 || len(r.Mixed) == 0 {
		return nil
	}
	if k <= len(r.Exact) {
		top := tensor.TopKInto(r.Exact, k, &s.post)
		if r.Exact[top[k-1]] > r.Floor && !hasNaN(r.Exact) {
			for j, p := range top {
				top[j] = r.Candidates[p]
			}
			return top
		}
	}
	mRankFullSweep.Inc()
	return tensor.TopKInto(r.Mixed, k, &s.post)
}

// hasNaN reports whether x holds a NaN.
func hasNaN(x []float32) bool {
	for _, v := range x {
		if v != v {
			return true
		}
	}
	return false
}

// quantized returns n scratch-owned quantized-feature slots, keeping
// the buffers the existing ones have grown.
func (s *Scratch) quantized(n int) []quant.Vector {
	for len(s.qs) < n {
		s.qs = append(s.qs, quant.Vector{})
	}
	return s.qs[:n]
}

// growF32 returns buf resized to n, reallocating only when capacity
// is insufficient.
func growF32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// shardMinRows is the minimum GEMV rows per shard worth a goroutine:
// below this the spawn/join overhead beats the win.
const shardMinRows = 65536

// shardCount picks the intra-query shard count for a rows-sized GEMV
// or selection sweep under the scratch's MaxShards cap.
func (s *Scratch) shardCount(rows int) int {
	p := runtime.GOMAXPROCS(0)
	if s.MaxShards > 0 && p > s.MaxShards {
		p = s.MaxShards
	}
	if p <= 1 || rows < 2*shardMinRows {
		return 1
	}
	if n := rows / shardMinRows; n < p {
		p = n
	}
	return p
}
