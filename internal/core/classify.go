package core

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"enmc/internal/activation"
	"enmc/internal/quant"
	"enmc/internal/telemetry"
	"enmc/internal/tensor"
)

// Pipeline instruments on the default telemetry registry. They are
// always live: recording is a few atomic ops with no allocations, so
// the hot path pays nothing measurable when nobody reads them.
var (
	mClassifyCount = telemetry.Default().Counter("core.classify.count")
	mClassifyNs    = telemetry.Default().Histogram("core.classify.latency_ns", telemetry.LatencyBuckets())
	mScreenNs      = telemetry.Default().Histogram("core.classify.screen_ns", telemetry.LatencyBuckets())
	mSelectNs      = telemetry.Default().Histogram("core.classify.select_ns", telemetry.LatencyBuckets())
	mExactNs       = telemetry.Default().Histogram("core.classify.exact_ns", telemetry.LatencyBuckets())
	mCandidates    = telemetry.Default().Histogram("core.classify.candidates", telemetry.CountBuckets())
	mBatchNs       = telemetry.Default().Histogram("core.classify.batch_ns", telemetry.LatencyBuckets())
	mBatchSize     = telemetry.Default().Histogram("core.classify.batch_size", telemetry.CountBuckets())
	// The two fallbacks of the one-sweep select (see SelectCandidatesInto
	// and Scratch.RankMixed): each counts an item that paid a second
	// sweep of its l logits because a bound failed.
	mSelectBracketMiss = telemetry.Default().Counter("core.classify.select_bracket_miss")
	mRankFullSweep     = telemetry.Default().Counter("core.classify.rank_full_sweep")
)

// Result is the outcome of screening-based classification: the mixed
// pre-softmax vector (approximate everywhere, exact at candidates)
// plus bookkeeping the evaluation needs.
type Result struct {
	// Mixed holds approximate logits with candidate entries replaced
	// by exact values (paper Fig. 6, step 5).
	Mixed []float32
	// Candidates are the indices recomputed exactly.
	Candidates []int
	// Exact holds the exact logits for Candidates, aligned by index.
	Exact []float32
	// Floor is the smallest approximate logit among the Candidates,
	// read before the exact values replace them. Every non-candidate's
	// approximate logit is ≤ Floor under either selection policy, so an
	// exact logit above Floor outranks every entry of Mixed outside the
	// candidates. Floor is NaN when that bound cannot be given — a NaN
	// among the candidates, or one that may sit among the others — and
	// +Inf when there are no candidates.
	Floor float32
}

// Probabilities normalizes the mixed vector with softmax.
func (r *Result) Probabilities() []float32 {
	p := make([]float32, len(r.Mixed))
	activation.Softmax(p, r.Mixed)
	return p
}

// Predict returns the argmax over the mixed vector.
func (r *Result) Predict() int { return tensor.ArgMax(r.Mixed) }

// TopPredictions returns the top-k classes of the mixed vector.
func (r *Result) TopPredictions(k int) []int { return tensor.TopK(r.Mixed, k) }

// ClassifyApprox runs the full inference pipeline of Section 4.2:
// screen, select candidates, recompute candidates exactly against the
// full classifier, and merge. It is ClassifyApproxInto on a pooled
// scratch with the Result copied out, so the caller owns it.
func ClassifyApprox(cls *Classifier, scr *Screener, h []float32, sel Selection) *Result {
	sc := GetScratch()
	defer sc.Release()
	return ClassifyApproxInto(cls, scr, h, sel, sc).clone()
}

// clone copies an arena-backed Result into caller-owned storage.
func (r *Result) clone() *Result {
	return &Result{
		Mixed:      append([]float32(nil), r.Mixed...),
		Candidates: append([]int(nil), r.Candidates...),
		Exact:      append([]float32(nil), r.Exact...),
		Floor:      r.Floor,
	}
}

// ClassifyApproxInto is the single-query driver: screen into sc's
// mixed buffer, then finishInto. It runs entirely in sc's arena: zero
// allocations in steady state. Stage latencies and the candidate count
// land in the telemetry registry; spans are recorded only when a
// global tracer is installed. The returned Result is arena-backed —
// its slices alias sc and are overwritten by the next pipeline call on
// the same scratch (and invalid after sc.Release), so copy out
// anything you keep. This is the kernel a saturated server loops on,
// one scratch per worker.
func ClassifyApproxInto(cls *Classifier, scr *Screener, h []float32, sel Selection, sc *Scratch) *Result {
	sc.mixed[0] = growF32(sc.mixed[0], scr.Cfg.Categories)
	tr := telemetry.Global()
	t0 := time.Now()
	scr.ScreenInto(sc.mixed[0], h, sc)
	screen := time.Since(t0)
	traceSpan(tr, "screen", telemetry.TrackPipeline, screen)
	return finishInto(cls, h, sel, sc.mixed[0], sc, tr, telemetry.TrackPipeline, screen)
}

// traceSpan records a classify-stage span that ended just now.
func traceSpan(tr *telemetry.Tracer, name string, tid int, dur time.Duration) {
	tr.Add(telemetry.Span{Name: name, Cat: "classify", TID: tid, Start: tr.Now() - dur.Nanoseconds(), Dur: dur.Nanoseconds()})
}

// finishInto is the pipeline behind the screen: select candidates from
// the screened logits in mixed, recompute them exactly, merge into
// mixed. screen is the screening time attributed to this item — its
// own, or its share of a batch-major tile — so every item records one
// sample in each stage histogram. The Result aliases sc.
func finishInto(cls *Classifier, h []float32, sel Selection, mixed []float32, sc *Scratch, tr *telemetry.Tracer, tid int, screen time.Duration) *Result {
	t1 := time.Now()
	// Candidates come back in ascending index order: the exact gather
	// touches one classifier row per candidate out of an l×d matrix far
	// larger than cache, and a monotone walk keeps it page-local
	// instead of hopping the address space in score order. No caller
	// depends on candidate order — Exact stays j-aligned with
	// Candidates.
	cands := SelectCandidatesInto(mixed, sel, sc)
	t2 := time.Now()
	traceSpan(tr, "select", tid, t2.Sub(t1))
	sc.exact = growF32(sc.exact, len(cands))
	exact := sc.exact
	cls.LogitsRowsInto(exact, cands, h)
	floor, nan := float32(math.Inf(1)), sc.maybeNaN
	for j, c := range cands {
		if v := mixed[c]; v < floor {
			floor = v
		} else if v != v {
			nan = true
		}
		mixed[c] = exact[j]
	}
	if nan {
		floor = float32(math.NaN())
	}
	t3 := time.Now()
	traceSpan(tr, "exact-recompute", tid, t3.Sub(t2))

	mClassifyCount.Inc()
	mScreenNs.Observe(float64(screen))
	mSelectNs.Observe(float64(t2.Sub(t1)))
	mExactNs.Observe(float64(t3.Sub(t2)))
	mClassifyNs.Observe(float64(screen + t3.Sub(t1)))
	mCandidates.Observe(float64(len(cands)))
	sc.res = Result{Mixed: mixed, Candidates: cands, Exact: exact, Floor: floor}
	return &sc.res
}

// batchShardBudget splits GOMAXPROCS between inter-item workers and
// intra-query GEMV shards: a full batch runs serial per-query kernels
// on every core, a short batch lets each worker fan its screening
// sweep across the idle cores.
func batchShardBudget(items int) (workers, maxShards int) {
	p := runtime.GOMAXPROCS(0)
	workers = p
	if workers > items {
		workers = items
	}
	if workers < 1 {
		workers = 1
	}
	maxShards = p / workers
	if maxShards < 1 {
		maxShards = 1
	}
	return workers, maxShards
}

// ClassifyBatchVisitCtx is the batch driver every context-aware
// caller runs (serving stacks, the enmc facade). Instead of
// materializing caller-owned Results (an l-sized allocation per item —
// megabytes of garbage per request at extreme scale), it invokes
// visit(i, res, sc) on the worker goroutine with an arena-backed
// Result. The Result and anything reached through it are recycled as
// soon as visit returns, so visit must copy out what it keeps; sc is
// the worker's scratch, handy for scratch-backed post-processing such
// as sc.TopK over res.Mixed. visit runs concurrently across workers
// (for distinct items i), so it must not touch shared state without
// synchronization beyond writing i-indexed outputs.
//
// Up to GOMAXPROCS workers each claim a tile of consecutive items —
// min(quant.BatchTile, ⌈items/workers⌉) of them — screen the tile
// batch-major (W̃ streamed once for the tile, ScreenBatchInto) into
// scratch-owned buffers and then finish and visit its items one by
// one. A tile of one is the single-query pipeline, intra-query
// sharding included. Every item is bit-identical to
// ClassifyApproxInto.
//
// Cancellation is honored between tiles and between the items of a
// tile: once ctx is done nothing further starts and the call returns
// ctx.Err(). Cancelled batches still observe batch_ns/batch_size (with
// the visited item count); what the cancellation means is the caller's
// to judge (telemetry.OutcomeOfErr).
func ClassifyBatchVisitCtx(ctx context.Context, cls *Classifier, scr *Screener, batch [][]float32, sel Selection, tr *telemetry.Tracer, visit func(i int, res *Result, sc *Scratch)) error {
	start := time.Now()
	workers, maxShards := batchShardBudget(len(batch))
	tile := min(quant.BatchTile, (len(batch)+workers-1)/workers)
	var n struct{ claimed, visited atomic.Int64 } // one allocation: the workers share it
	runWorker := func(tid int) {
		sc := GetScratch()
		defer sc.Release()
		sc.MaxShards = maxShards
		for ctx.Err() == nil {
			hi := int(n.claimed.Add(int64(tile)))
			lo := hi - tile
			if lo >= len(batch) {
				return
			}
			hs := batch[lo:min(hi, len(batch))]
			mixed := sc.mixed[:len(hs)]
			for j := range mixed {
				mixed[j] = growF32(mixed[j], scr.Cfg.Categories)
			}
			t0 := time.Now()
			scr.ScreenBatchInto(mixed, hs, sc)
			screen := time.Since(t0)
			traceSpan(tr, "screen", tid, screen)
			for j, h := range hs {
				if ctx.Err() != nil {
					return
				}
				visit(lo+j, finishInto(cls, h, sel, mixed[j], sc, tr, tid, screen/time.Duration(len(hs))), sc)
				n.visited.Add(1)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			runWorker(tid)
		}(telemetry.TrackPipeline + w)
	}
	runWorker(telemetry.TrackPipeline)
	wg.Wait()
	mBatchNs.Observe(float64(time.Since(start)))
	mBatchSize.Observe(float64(n.visited.Load()))
	return ctx.Err()
}
