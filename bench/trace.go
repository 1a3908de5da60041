package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"enmc/internal/decode"
	"enmc/internal/server"
)

// Span names, outermost first: a classify request nests
// request → handler → queue → backend → [rpc → worker], a decode
// session nests request → handler → score_step, and the client adds a
// token span per streamed frame.
const (
	spanRequest = "loadgen.request" // due time → reply read
	spanWait    = "loadgen.wait"    // open loop: due time → a free connection sent it
	spanToken   = "loadgen.token"   // decode: previous frame → this frame
	spanHandler = "server.handler"
	spanQueue   = "server.queue"
	spanBackend = "server.backend"
	spanRPC     = "cluster.rpc"
	spanWorker  = "cluster.worker"
	spanScore   = "decode.score_step"
)

// Headers by which a traced request carries its identity across an
// HTTP hop; untraced runs send neither.
const (
	hdrReq  = "X-Bench-Req"  // request id
	hdrSpan = "X-Bench-Span" // the sender's span, parent of the receiver's
)

// span is one timed interval at a layer boundary. N, In and Out carry
// the count measured at the same boundary: N is the HTTP status of a
// handler, the item count of a backend call, the shard of an rpc and
// the budget m of a score step; In/Out are body bytes of a handler or
// rpc and cache hits/misses of a score step.
type span struct {
	Name       string
	ID, Parent int32
	Req        int32
	Start, End int64 // ns since the tracer's epoch
	N, In, Out int32
}

// spanRef travels in a context from a tap to the taps beneath it.
type spanRef struct{ id, req int32 }

type spanKey struct{}

// tracer collects spans in a pre-sized slice and writes them out when
// the run ends; nothing is formatted while the system is measured.
type tracer struct {
	epoch time.Time
	ids   atomic.Int32
	// on gates recording to the measured window: warm-up and probe
	// requests run through the same taps and are dropped.
	on atomic.Bool

	mu    sync.Mutex
	spans []span
	// backendOf maps a request to the backend call that served it: a
	// micro-batch is one call serving several requests.
	backendOf map[int32]int32
	// inflight maps a request vector's fingerprint to its request id.
	// The batcher flushes under context.Background, so the vector is
	// the only thing a request and its backend call share.
	inflight map[uint64]int32
}

func newTracer() *tracer {
	return &tracer{
		epoch:     time.Now(),
		spans:     make([]span, 0, 1<<18),
		backendOf: map[int32]int32{},
		inflight:  map[uint64]int32{},
	}
}

func (t *tracer) now() int64   { return int64(time.Since(t.epoch)) }
func (t *tracer) newID() int32 { return t.ids.Add(1) }

// add records a span measured while the window is open.
func (t *tracer) add(s span) {
	if t.on.Load() {
		t.record(s)
	}
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func fingerprint(h []float32) uint64 {
	return uint64(math.Float32bits(h[0]))<<32 | uint64(math.Float32bits(h[1]))
}

// begin registers a request's vectors before it is sent; end forgets
// them. The load generator never has one vector in flight twice.
func (t *tracer) begin(req int32, vecs ...[]float32) {
	t.mu.Lock()
	for _, h := range vecs {
		t.inflight[fingerprint(h)] = req
	}
	t.mu.Unlock()
}

func (t *tracer) end(vecs ...[]float32) {
	t.mu.Lock()
	for _, h := range vecs {
		delete(t.inflight, fingerprint(h))
	}
	t.mu.Unlock()
}

// writeChrome writes the spans as Chrome trace JSON, one row per
// request.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		PID  int              `json:"pid"`
		TID  int32            `json:"tid"`
		TS   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Args map[string]int32 `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Req,
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]int32{"id": s.ID, "parent": s.Parent, "n": s.N, "in": s.In, "out": s.Out},
		}
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func headerID(r *http.Request, name string) int32 {
	n, _ := strconv.ParseInt(r.Header.Get(name), 10, 32)
	return int32(n)
}

// tapHandler times a front-end or worker handler. Requests that name
// no parent span (health probes, shard info) pass through untimed.
func tapHandler(t *tracer, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, req := headerID(r, hdrSpan), headerID(r, hdrReq)
		if parent == 0 {
			next.ServeHTTP(w, r)
			return
		}
		s := span{Name: name, ID: t.newID(), Parent: parent, Req: req, In: int32(r.ContentLength)}
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		ctx := context.WithValue(r.Context(), spanKey{}, spanRef{id: s.ID, req: req})
		s.Start = t.now()
		next.ServeHTTP(cw, r.WithContext(ctx))
		s.End = t.now()
		s.N, s.Out = int32(cw.status), int32(cw.n)
		t.add(s)
	})
}

// countingWriter records status and body bytes, and keeps Flush so
// the decode stream still reaches the client token by token.
type countingWriter struct {
	http.ResponseWriter
	status, n int
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// backendTap times server.Backend calls. tapBackend picks the variant
// that keeps the inner backend's optional interfaces, because the
// server chooses its code path by type assertion.
type backendTap struct {
	t     *tracer
	inner server.Backend
}

func tapBackend(t *tracer, inner server.Backend) server.Backend {
	tap := backendTap{t: t, inner: inner}
	if pb, ok := inner.(server.PartialBackend); ok {
		return &partialBackendTap{backendTap: tap, partial: pb}
	}
	return &tap
}

func (b *backendTap) Hidden() int     { return b.inner.Hidden() }
func (b *backendTap) Categories() int { return b.inner.Categories() }

// call opens a backend span, runs fn under a context that names it,
// and links every item's request to the span.
func (b *backendTap) call(ctx context.Context, batch [][]float32, fn func(context.Context)) {
	s := span{Name: spanBackend, ID: b.t.newID(), N: int32(len(batch))}
	b.t.mu.Lock()
	for _, h := range batch {
		if req, ok := b.t.inflight[fingerprint(h)]; ok {
			b.t.backendOf[req] = s.ID
			if s.Req == 0 {
				s.Req = req
			}
		}
	}
	b.t.mu.Unlock()
	s.Start = b.t.now()
	fn(context.WithValue(ctx, spanKey{}, spanRef{id: s.ID, req: s.Req}))
	s.End = b.t.now()
	b.t.add(s)
}

func (b *backendTap) ClassifyBatch(ctx context.Context, batch [][]float32, m, topK int) (outs []server.Outcome, err error) {
	b.call(ctx, batch, func(ctx context.Context) { outs, err = b.inner.ClassifyBatch(ctx, batch, m, topK) })
	return outs, err
}

type partialBackendTap struct {
	backendTap
	partial server.PartialBackend
}

func (b *partialBackendTap) ClassifyBatchPartial(ctx context.Context, batch [][]float32, m, topK int) (outs []server.Outcome, p server.Partial, err error) {
	b.call(ctx, batch, func(ctx context.Context) { outs, p, err = b.partial.ClassifyBatchPartial(ctx, batch, m, topK) })
	return outs, p, err
}

func (b *partialBackendTap) ModelVersion() string {
	if v, ok := b.inner.(server.Versioned); ok {
		return v.ModelVersion()
	}
	return ""
}

func (b *partialBackendTap) VersionSkew() bool {
	v, ok := b.inner.(server.SkewReporter)
	return ok && v.VersionSkew()
}

// transportTap times the router's shard RPCs, from the request's
// first byte out to the reply body's close, and names itself as the
// parent of the worker's handler span. Calls made outside a backend
// span (health probes, Dial) pass through.
type transportTap struct {
	t       *tracer
	inner   *http.Transport
	shardOf map[string]int32 // worker host:port → shard
}

func (rt *transportTap) CloseIdleConnections() { rt.inner.CloseIdleConnections() }

func (rt *transportTap) RoundTrip(r *http.Request) (*http.Response, error) {
	ref, ok := r.Context().Value(spanKey{}).(spanRef)
	if !ok {
		return rt.inner.RoundTrip(r)
	}
	s := span{Name: spanRPC, ID: rt.t.newID(), Parent: ref.id, Req: ref.req, N: rt.shardOf[r.URL.Host], In: int32(r.ContentLength)}
	r = r.Clone(r.Context())
	r.Header.Set(hdrReq, strconv.Itoa(int(ref.req)))
	r.Header.Set(hdrSpan, strconv.Itoa(int(s.ID)))
	s.Start = rt.t.now()
	resp, err := rt.inner.RoundTrip(r)
	if err != nil {
		s.End = rt.t.now()
		s.Out = -1
		rt.t.add(s)
		return nil, err
	}
	resp.Body = &bodyTap{ReadCloser: resp.Body, done: func(n int) {
		s.End = rt.t.now()
		s.Out = int32(n)
		rt.t.add(s)
	}}
	return resp, nil
}

type bodyTap struct {
	io.ReadCloser
	n    int
	once sync.Once
	done func(n int)
}

func (b *bodyTap) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += n
	return n, err
}

func (b *bodyTap) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// scorerTap times one decode session's per-token classifier calls.
type scorerTap struct {
	t     *tracer
	inner decode.Scorer
}

func (s *scorerTap) Close() { s.inner.Close() }

func (s *scorerTap) ScoreStep(ctx context.Context, h []float32, m, k int) (decode.StepScore, error) {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	sp := span{Name: spanScore, ID: s.t.newID(), Parent: ref.id, Req: ref.req, Start: s.t.now()}
	sc, err := s.inner.ScoreStep(ctx, h, m, k)
	sp.End = s.t.now()
	sp.N, sp.In, sp.Out = int32(sc.M), int32(sc.CacheHits), int32(sc.CacheMisses)
	s.t.add(sp)
	return sc, err
}
