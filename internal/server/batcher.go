package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"enmc/internal/telemetry"
	"enmc/internal/tenant"
)

// Admission errors. The HTTP layer maps ErrOverloaded and ErrShed to
// 429 (with Retry-After) and ErrDraining to 503.
var (
	// ErrOverloaded means the request's class queue is full.
	ErrOverloaded = errors.New("server: admission queue full")
	// ErrShed means the class was turned away to protect a
	// higher-priority class's backlog (class-aware load shedding).
	ErrShed = errors.New("server: load shed for higher-priority traffic")
	// ErrDraining means the server is shutting down and no longer
	// accepts work.
	ErrDraining = errors.New("server: draining")
)

// Batching and queue instruments on the default telemetry registry.
var (
	mQueueDepth = telemetry.Default().Gauge("server.queue.depth")
	mEnqueued   = telemetry.Default().Counter("server.queue.enqueued")
	mQueueNs    = telemetry.Default().Histogram("server.queue.wait_ns", telemetry.LatencyBuckets())
	mFlushSize  = telemetry.Default().Histogram("server.batch.size", telemetry.CountBuckets())
	mFlushNs    = telemetry.Default().Histogram("server.batch.flush_ns", telemetry.LatencyBuckets())
	mBudget     = telemetry.Default().Gauge("server.batch.m")
	mDegraded   = telemetry.Default().Counter("server.batch.degraded")
)

// Per-class queue-depth gauges, indexed like tenant.Classes.
var mClassDepth = func() [tenant.NumClasses]*telemetry.Gauge {
	var g [tenant.NumClasses]*telemetry.Gauge
	for i, c := range tenant.Classes {
		g[i] = telemetry.Default().Gauge(telemetry.LabeledName("server.queue.class_depth",
			map[string]string{"class": string(c)}))
	}
	return g
}()

// request is one queued classification entry: one item from
// /v1/classify, n items from /v1/classify_batch. It is never split
// across flushes.
type request struct {
	ctx  context.Context
	hs   [][]float32
	topK int
	enq  time.Time
	resp chan reply // buffered(1): the flush worker never blocks on it
	// class is the owning tenant's priority class — the WFQ queue the
	// request waits in and the degradation policy applied to it.
	class tenant.Class
	// pinned routes the flush to a pinned model version ("" = active
	// model).
	pinned string
}

// reply carries a request's outcomes (one per item) plus the serving
// metadata surfaced in the response body.
type reply struct {
	outs     []Outcome
	m        int
	degraded bool
	batch    int // items in the flush
	queuedNs int64
	version  string  // model version that served the batch
	partial  Partial // cluster degradation state (zero off-cluster)
	err      error
}

// batcher is the dynamic micro-batching scheduler: requests are
// admitted into a per-class weighted-fair queue (deficit round robin
// over items — see internal/tenant), a collector goroutine drains it
// in DRR order into class-homogeneous batches (handed over the moment
// a flush worker is idle, growing toward MaxBatch items only while
// every worker is busy), and a small pool of flush workers fans each
// batch into the backend's worker-pool ClassifyBatch.
type batcher struct {
	cfg     Config
	backend Backend
	// pinnedBackend resolves a tenant's pinned model version (nil:
	// pinning unavailable — pinned requests fail).
	pinnedBackend func(version string) (Backend, error)

	q     *tenant.WFQ[*request]
	flush chan []*request
	wg    sync.WaitGroup // collector + flush workers
}

func newBatcher(cfg Config, backend Backend) *batcher {
	b := &batcher{
		cfg:           cfg,
		backend:       backend,
		pinnedBackend: cfg.PinnedBackend,
		q:             tenant.NewWFQ[*request](cfg.QueueCap, tenant.DefaultWeights),
		flush:         make(chan []*request),
	}
	b.wg.Add(1 + cfg.FlushWorkers)
	go b.collect()
	for i := 0; i < cfg.FlushWorkers; i++ {
		go b.flushWorker()
	}
	return b
}

// enqueue admits a request or rejects it immediately: ErrDraining
// once drain has begun, ErrShed when the ladder is protecting a
// higher class, ErrOverloaded when the request's items do not fit in
// its class queue.
func (b *batcher) enqueue(r *request) error {
	if b.shouldShed(r.class) {
		return ErrShed
	}
	n := len(r.hs)
	switch err := b.q.Push(r.class, r, n); err {
	case nil:
		mQueueDepth.Add(float64(n))
		mClassDepth[r.class.Index()].Add(float64(n))
		mEnqueued.Inc()
		return nil
	case tenant.ErrClosed:
		return ErrDraining
	default: // tenant.ErrQueueFull
		return ErrOverloaded
	}
}

// drain stops intake (subsequent enqueues fail with ErrDraining) and
// blocks until every already-admitted request has been flushed and
// replied to. Safe to call more than once.
func (b *batcher) drain() {
	b.q.Close()
	b.wg.Wait()
}

// collect is the batching loop. DRR picks the class of the next
// flush and the batch takes every entry of that class already queued
// (PopClass — the class borrows against future quanta for the batch's
// tail), up to MaxBatch items. The batch then goes to the first idle
// flush worker; while every worker is busy it keeps gathering arrivals
// of its class. It is work-conserving: a batch never waits while a
// worker is free, and it grows only while it could not be flushed
// anyway. Entries are whole, so a flush can exceed MaxBatch by less
// than one entry. A flush never mixes classes, so one screening budget
// applies to the whole batch.
func (b *batcher) collect() {
	defer b.wg.Done()
	for {
		r, class, ok := b.q.Pop()
		if !ok {
			if _, open := <-b.q.Ready(); !open && b.q.Len() == 0 {
				close(b.flush)
				return
			}
			continue
		}
		b.popped(r)
		pending, items := b.gather([]*request{r}, len(r.hs), class)
		ready := b.q.Ready()
		for sent := false; !sent; {
			if items >= b.cfg.MaxBatch {
				ready = nil // full: wait for a worker only
			}
			// b.flush is unbuffered: the send succeeds exactly when a
			// flush worker is idle. Any arrival (of any class) signals
			// Ready; only same-class entries join. A closed Ready means
			// no more arrivals: take what is queued and flush.
			select {
			case b.flush <- pending:
				sent = true
			case _, open := <-ready:
				if !open {
					ready = nil
				}
				pending, items = b.gather(pending, items, class)
			}
		}
	}
}

// gather appends the class's already-queued entries to pending until
// it holds MaxBatch items or the class queue is empty.
func (b *batcher) gather(pending []*request, items int, class tenant.Class) ([]*request, int) {
	for items < b.cfg.MaxBatch {
		r, ok := b.q.PopClass(class)
		if !ok {
			break
		}
		b.popped(r)
		pending = append(pending, r)
		items += len(r.hs)
	}
	return pending, items
}

func (b *batcher) popped(r *request) {
	n := float64(len(r.hs))
	mQueueDepth.Add(-n)
	mClassDepth[r.class.Index()].Add(-n)
	mQueueNs.Observe(float64(time.Since(r.enq)))
}

func (b *batcher) flushWorker() {
	defer b.wg.Done()
	for batch := range b.flush {
		b.doFlush(batch)
	}
}

// doFlush classifies one collected batch. Requests whose context has
// already expired are answered with their context error without
// touching the model; the rest run under flushContext. The screening
// budget is the flush class's — batches are class-homogeneous by
// construction.
func (b *batcher) doFlush(batch []*request) {
	start := time.Now()
	m, degraded := b.effectiveM(batch[0].class)
	live := batch[:0] // filtered in place: the batch is the flush's own
	items := 0
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			r.resp <- reply{err: err}
			continue
		}
		live = append(live, r)
		items += len(r.hs)
	}
	if len(live) == 0 {
		return
	}
	fctx, release := flushContext(live)
	defer release()
	// Partition by pinned model version, in order of first appearance,
	// so one flush can serve tenants pinned to different registry
	// versions. Almost every flush is the single "" group serving the
	// active model: it is filtered in place and rest stays nil.
	for len(live) > 0 {
		ver := live[0].pinned
		group, rest := live[:0], []*request(nil)
		for _, r := range live {
			if r.pinned == ver {
				group = append(group, r)
			} else {
				rest = append(rest, r)
			}
		}
		b.flushGroup(fctx, group, ver, m, degraded, start, items)
		live = rest
	}
	mFlushSize.Observe(float64(items))
	mFlushNs.Observe(float64(time.Since(start)))
}

// flushContext is the context a flush runs under. It is cancelled once
// every live requester's context is done — so a client deadline aborts
// the backend between items, as it would on the handler goroutine —
// and never while one requester still waits, so a graceful drain
// answers every admitted request. The flush adopts the first traced
// request's trace, so cluster RPC spans land in a trace (requests
// batched behind it share the timeline). release frees the watchers.
func flushContext(live []*request) (ctx context.Context, release func()) {
	ctx, cancel := context.WithCancel(context.Background())
	for _, r := range live {
		if tc, ok := telemetry.TraceCtxFrom(r.ctx); ok {
			ctx = telemetry.WithTraceCtx(ctx, tc)
			break
		}
	}
	var waiting atomic.Int64
	waiting.Store(int64(len(live)))
	gone := func() {
		if waiting.Add(-1) == 0 {
			cancel()
		}
	}
	stops := make([]func() bool, len(live))
	for i, r := range live {
		stops[i] = context.AfterFunc(r.ctx, gone)
	}
	return ctx, func() {
		for _, stop := range stops {
			stop()
		}
		cancel()
	}
}

// flushGroup classifies the subset of a flush bound to one model
// version ("" = the active backend) and answers its requests: the
// entries' items go to the backend as one batch (the vectors are not
// copied), and each entry gets its own slice of the outcomes back.
func (b *batcher) flushGroup(fctx context.Context, group []*request, pinned string, m int, degraded bool, start time.Time, batchSize int) {
	backend := b.backend
	if pinned != "" {
		var err error
		backend, err = b.resolvePinned(pinned)
		if err != nil {
			for _, r := range group {
				r.resp <- reply{err: err}
			}
			return
		}
	}
	hs, maxK := group[0].hs, max(1, group[0].topK)
	if len(group) > 1 {
		hs = make([][]float32, 0, batchSize)
		for _, r := range group {
			hs = append(hs, r.hs...)
			maxK = max(maxK, r.topK)
		}
	}
	outs, version, partial, err := classifyTagged(fctx, backend, hs, m, maxK)
	off := 0
	for _, r := range group {
		rep := reply{m: m, degraded: degraded, batch: batchSize, queuedNs: start.Sub(r.enq).Nanoseconds(), version: version, partial: partial, err: err}
		if err == nil {
			rep.outs = outs[off : off+len(r.hs)]
			for i := range rep.outs {
				if o := &rep.outs[i]; r.topK < len(o.TopK) {
					o.TopK = o.TopK[:r.topK]
				}
			}
		}
		off += len(r.hs)
		r.resp <- rep
	}
}

// resolvePinned maps a pinned model version to its serving backend.
func (b *batcher) resolvePinned(version string) (Backend, error) {
	if b.pinnedBackend == nil {
		return nil, errors.New("server: no pinned-model resolver configured (tenant pin requires -model-root)")
	}
	return b.pinnedBackend(version)
}
