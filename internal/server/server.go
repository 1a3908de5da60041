// Package server is the production serving layer over the ENMC
// inference facade: an HTTP/JSON classification service with dynamic
// micro-batching, bounded admission, per-request deadlines, and
// graceful degradation under load.
//
// Endpoints:
//
//	POST /v1/classify        {"h":[...], "top_k":5}  — single item
//	POST /v1/classify_batch  {"batch":[[...],...], "top_k":5} — a
//	     caller-formed batch of at most QueueCap items
//	POST /v1/decode          {"h0":[...]} — one streaming decode
//	     session, opened for this request and closed when its response
//	     ends (SSE or NDJSON frames, one per emitted token; see
//	     decode.go and internal/decode)
//	GET  /v1/tenants         — per-tenant QoS counters + SLO windows
//	GET  /healthz            — liveness (always 200 while serving)
//	GET  /readyz             — readiness (503 once Drain has begun)
//
// Load behavior: requests resolve to a tenant (X-Enmc-Api-Key against
// the hot-reloadable tenant config) whose priority class picks the
// admission queue — a deficit-round-robin weighted-fair scheduler
// across interactive/standard/batch (see internal/tenant). A full
// class queue answers 429 with Retry-After instead of queueing
// unboundedly. Both classify endpoints share that queue: a caller
// batch is one entry that counts its n items toward queue depth and
// quota and is never split across flushes, and a flush runs until
// every requester in it has gone, so a client deadline threads down to
// core.ClassifyBatchVisitCtx item boundaries. Past the watermark the
// screening budget TopM shrinks toward MFloor class-aware (batch
// first, interactive last — see degrade.go), surfaced per-response as
// "m"/"degraded"/"class" and in telemetry. Every 429/503 carries
// Retry-After and a machine-readable "reason". Drain fails readiness
// first, stops intake (503), and completes every admitted request.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"enmc/internal/decode"
	"enmc/internal/telemetry"
	"enmc/internal/tenant"
)

// Per-endpoint instruments on the default telemetry registry.
// mSwapTotal/mCanaryRejected are handles to the lifecycle counters
// the registry manager owns (same names, same registry entries) so
// /v1/model can report them without an import cycle.
var (
	mClassifyNs      = telemetry.Default().Histogram("server.http.classify_ns", telemetry.LatencyBuckets())
	mClassifyBatchNs = telemetry.Default().Histogram("server.http.classify_batch_ns", telemetry.LatencyBuckets())
	mSwapTotal       = telemetry.Default().Counter("registry.swap_total")
	mCanaryRejected  = telemetry.Default().Counter("registry.canary_rejected")
)

// Config tunes the serving layer. Zero values take the documented
// defaults in New.
type Config struct {
	// MaxBatch caps the items one flush gathers (default 32). A batch
	// never waits for company: it goes as soon as a flush worker is
	// idle and grows toward MaxBatch only while every worker is busy.
	// A caller batch is never split, so a flush can exceed it by less
	// than one batch.
	MaxBatch int
	// QueueCap bounds each priority class's admission queue in items;
	// a request whose items do not fit answers 429, and a batch of more
	// than QueueCap items 400 (default 256).
	QueueCap int
	// FlushWorkers is the number of batches that may be in flight on
	// the backend concurrently (default 2).
	FlushWorkers int
	// TopM is the screening budget at idle (default DefaultTopM).
	TopM int
	// MFloor is the degradation floor TopM shrinks toward under
	// pressure (default max(1, TopM/4)).
	MFloor int
	// Watermark is the queue-depth fraction of QueueCap past which
	// degradation engages (default 0.5).
	Watermark float64
	// RequestLog emits one structured record per /v1/* request (nil:
	// request logging off — the nil receiver records nothing).
	RequestLog *telemetry.RequestLog
	// SLO is the rolling-window tracker behind GET /v1/slo and the
	// slo_* gauges on /metrics (nil: a default 5m/99.9% tracker).
	SLO *telemetry.SLO
	// Tenants resolves API keys to tenant identities (nil: a built-in
	// single-tenant resolver — every request is the anonymous
	// standard-class tenant with no quota).
	Tenants *tenant.Resolver
	// ShedFrac is the fraction of a higher class's queue capacity past
	// which lower classes are shed at admission (default 0.75).
	ShedFrac float64
	// PinnedBackend resolves a tenant's pinned model version to a
	// serving backend (typically registry.Manager.BackendFor). Nil
	// rejects pinned tenants' requests with an explanatory error.
	PinnedBackend func(version string) (Backend, error)
}

// maxTopK caps the per-request top_k; retryAfterSecs is the
// Retry-After hint, in whole seconds, on every 429/503.
const (
	maxTopK        = 64
	retryAfterSecs = "1"
)

// DefaultTopM is the screening budget served when none is configured:
// categories/64, at least 1. The registry's canary screens at the
// same m.
func DefaultTopM(categories int) int {
	return max(categories/64, 1)
}

func (c *Config) defaults(categories int) {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.FlushWorkers <= 0 {
		c.FlushWorkers = 2
	}
	if c.TopM <= 0 {
		c.TopM = DefaultTopM(categories)
	}
	if c.MFloor <= 0 {
		c.MFloor = c.TopM / 4
		if c.MFloor < 1 {
			c.MFloor = 1
		}
	}
	if c.Watermark <= 0 || c.Watermark >= 1 {
		c.Watermark = 0.5
	}
	if c.ShedFrac <= 0 || c.ShedFrac >= 1 {
		c.ShedFrac = 0.75
	}
}

// ReloadFunc triggers a model reload: version "" means "newest
// available", a non-empty version pins the target. It returns the
// active version after the attempt — on a rejected canary or failed
// load the previous version keeps serving and the error says why.
type ReloadFunc func(ctx context.Context, version string) (active string, err error)

// Server is the HTTP serving layer. Create with New, expose with
// Handler, stop with Drain.
type Server struct {
	cfg       Config
	backend   Backend
	b         *batcher
	ready     chan struct{} // closed when draining
	mux       *http.ServeMux
	handler   http.Handler // mux wrapped in the instrument middleware
	reloader  atomic.Pointer[ReloadFunc]
	decodeSvc atomic.Pointer[decode.Service]
	reqLog    *telemetry.RequestLog
	slo       *telemetry.SLO
	tenants   *tenant.Resolver
	tstats    *tenant.Stats
}

// New builds a Server over the backend and starts its batching
// goroutines. The server is immediately ready.
func New(backend Backend, cfg Config) (*Server, error) {
	if backend == nil {
		return nil, fmt.Errorf("server: nil backend")
	}
	cfg.defaults(backend.Categories())
	if cfg.MFloor > cfg.TopM {
		return nil, fmt.Errorf("server: MFloor %d exceeds TopM %d", cfg.MFloor, cfg.TopM)
	}
	slo := cfg.SLO
	if slo == nil {
		slo = telemetry.NewSLO(telemetry.SLOConfig{})
	}
	tenants := cfg.Tenants
	if tenants == nil {
		// Single-tenant fallback: everything resolves to the built-in
		// anonymous identity, so the tenancy path is uniform.
		var err error
		tenants, err = tenant.NewResolver(tenant.File{})
		if err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:     cfg,
		backend: backend,
		b:       newBatcher(cfg, backend),
		ready:   make(chan struct{}),
		mux:     http.NewServeMux(),
		reqLog:  cfg.RequestLog,
		slo:     slo,
		tenants: tenants,
		tstats:  tenant.NewStats(telemetry.Default(), telemetry.SLOConfig{}),
	}
	s.mux.HandleFunc("/v1/classify", s.handleClassify)
	s.mux.HandleFunc("/v1/classify_batch", s.handleClassifyBatch)
	s.mux.HandleFunc("/v1/decode", s.handleDecode)
	s.mux.HandleFunc("/v1/model", s.handleModel)
	s.mux.HandleFunc("/v1/model/reload", s.handleModelReload)
	s.mux.HandleFunc("/v1/slo", s.handleSLO)
	s.mux.HandleFunc("/v1/tenants", s.handleTenants)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.Handle("/metrics", telemetry.PrometheusHandler(telemetry.Default(),
		func() { s.slo.Publish(telemetry.Default()) }))
	s.handler = s.instrument(s.mux)
	return s, nil
}

// SetReloader installs the model-reload trigger behind POST
// /v1/model/reload (typically the registry manager's Reload). Safe
// to call while serving; nil uninstalls.
func (s *Server) SetReloader(f ReloadFunc) {
	if f == nil {
		s.reloader.Store(nil)
		return
	}
	s.reloader.Store(&f)
}

// Handler returns the HTTP handler serving all endpoints, wrapped in
// the observability middleware (request IDs, trace spans, SLO
// observation, request logging — see middleware.go).
func (s *Server) Handler() http.Handler { return s.handler }

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	select {
	case <-s.ready:
		return true
	default:
		return false
	}
}

// Drain performs the graceful-shutdown sequence: readiness fails
// first (so load balancers stop routing here), intake stops (new
// work gets 503 + Retry-After), and the call blocks until every
// already-admitted request has been answered. Idempotent; safe to
// call from a signal handler goroutine. The caller still owns the
// http.Server and should Shutdown it after Drain returns so in-
// flight response writes complete.
func (s *Server) Drain() {
	select {
	case <-s.ready:
	default:
		close(s.ready)
	}
	s.b.drain()
}

// --- request/response bodies ---

// ClassifyRequest is the /v1/classify body.
type ClassifyRequest struct {
	H    []float32 `json:"h"`
	TopK int       `json:"top_k"`
}

// ClassifyResponse is the /v1/classify body: the prediction plus the
// serving metadata (budget actually used, whether degradation was
// active, micro-batch size, queue wait) that makes degradation
// observable per-request.
type ClassifyResponse struct {
	Class     int         `json:"class"`
	TopK      []Candidate `json:"topk,omitempty"`
	M         int         `json:"m"`
	Degraded  bool        `json:"degraded"`
	BatchSize int         `json:"batch_size"`
	QueueUs   int64       `json:"queue_us"`
	// Tenant/QoSClass report the QoS identity the request was served
	// under — which weighted-fair queue it waited in and which rung of
	// the degradation ladder chose m.
	Tenant   string `json:"tenant,omitempty"`
	QoSClass string `json:"qos_class,omitempty"`
	// ModelVersion is the registry version that served this request
	// (empty for unversioned backends); during a hot swap it names
	// the model the batch actually ran on. VersionSkew reports a
	// sharded deployment mid-rolling-update.
	ModelVersion string `json:"model_version,omitempty"`
	VersionSkew  bool   `json:"version_skew,omitempty"`
	// Partial is true when part of the class space was unreachable
	// and the top-k is the merge of the surviving cluster shards;
	// MissingShards lists what was absent. Always false off-cluster.
	Partial       bool  `json:"partial"`
	MissingShards []int `json:"missing_shards,omitempty"`
}

// ClassifyBatchRequest is the /v1/classify_batch body.
type ClassifyBatchRequest struct {
	Batch [][]float32 `json:"batch"`
	TopK  int         `json:"top_k"`
}

// BatchItem is one result in a ClassifyBatchResponse.
type BatchItem struct {
	Class int         `json:"class"`
	TopK  []Candidate `json:"topk,omitempty"`
}

// ClassifyBatchResponse is the /v1/classify_batch body.
type ClassifyBatchResponse struct {
	Results       []BatchItem `json:"results"`
	M             int         `json:"m"`
	Degraded      bool        `json:"degraded"`
	Tenant        string      `json:"tenant,omitempty"`
	QoSClass      string      `json:"qos_class,omitempty"`
	ModelVersion  string      `json:"model_version,omitempty"`
	VersionSkew   bool        `json:"version_skew,omitempty"`
	Partial       bool        `json:"partial"`
	MissingShards []int       `json:"missing_shards,omitempty"`
}

// ModelStatusResponse is the GET /v1/model body: the active model
// identity plus lifecycle counters.
type ModelStatusResponse struct {
	Version      string `json:"version"`
	Categories   int    `json:"categories"`
	Hidden       int    `json:"hidden"`
	VersionSkew  bool   `json:"version_skew,omitempty"`
	SwapTotal    int64  `json:"swap_total"`
	CanaryReject int64  `json:"canary_rejected"`
	Draining     bool   `json:"draining"`
}

// ReloadRequest is the optional POST /v1/model/reload body; an empty
// body (or empty version) reloads to the newest registry version.
type ReloadRequest struct {
	Version string `json:"version"`
}

// ReloadResponse is the POST /v1/model/reload success body.
type ReloadResponse struct {
	Version string `json:"version"`
}

type errorBody struct {
	Error string `json:"error"`
	// Reason is the machine-readable rejection class, set on every
	// 429/499/503/504: "overloaded", "shed", "quota", "session_limit",
	// "session_quota", "draining", "backend", "caller_cancelled",
	// "deadline".
	Reason string `json:"reason,omitempty"`
}

// --- handlers ---

// handleClassify and handleClassifyBatch each decode their own request
// type and write their own response type; everything in between is
// classify, which they share.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { mClassifyNs.Observe(float64(time.Since(start))) }()
	var body ClassifyRequest
	if !decodePost(w, r, &body) {
		return
	}
	rep, ten, ok := s.classify(w, r, [][]float32{body.H}, body.TopK)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, ClassifyResponse{
		Class: rep.outs[0].Class, TopK: rep.outs[0].TopK, M: rep.m, Degraded: rep.degraded,
		BatchSize: rep.batch, QueueUs: rep.queuedNs / 1e3,
		Tenant: ten.Name, QoSClass: string(ten.Class),
		ModelVersion: rep.version, VersionSkew: s.versionSkew(),
		Partial: rep.partial.Partial, MissingShards: rep.partial.MissingShards,
	})
}

func (s *Server) handleClassifyBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { mClassifyBatchNs.Observe(float64(time.Since(start))) }()
	var body ClassifyBatchRequest
	if !decodePost(w, r, &body) {
		return
	}
	rep, ten, ok := s.classify(w, r, body.Batch, body.TopK)
	if !ok {
		return
	}
	resp := ClassifyBatchResponse{
		Results: make([]BatchItem, len(rep.outs)), M: rep.m, Degraded: rep.degraded,
		Tenant: ten.Name, QoSClass: string(ten.Class),
		ModelVersion: rep.version, VersionSkew: s.versionSkew(),
		Partial: rep.partial.Partial, MissingShards: rep.partial.MissingShards,
	}
	for i, o := range rep.outs {
		resp.Results[i] = BatchItem{Class: o.Class, TopK: o.TopK}
	}
	writeJSON(w, http.StatusOK, resp)
}

// decodePost requires POST and decodes the JSON body into v. On
// failure it has answered 405 or 400.
func decodePost(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return false
	}
	return true
}

// classify is the one admission path of both classify endpoints: hs is
// one item from /v1/classify or a caller's whole batch. It validates
// every item, resolves the tenant and charges it len(hs) quota tokens,
// enqueues one entry of len(hs) items, waits for the entry's flush or
// the client, and fills the request metadata. On failure it has
// written the error (400, quota 429 or WriteFailure's table) and
// reports false. A merge that missed shards is marked Partial.
func (s *Server) classify(w http.ResponseWriter, r *http.Request, hs [][]float32, topK int) (reply, *tenant.Tenant, bool) {
	if len(hs) == 0 || len(hs) > s.cfg.QueueCap {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d items, want 1 to %d (the queue capacity)", len(hs), s.cfg.QueueCap))
		return reply{}, nil, false
	}
	for i, h := range hs {
		if len(h) != s.backend.Hidden() {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("item %d: feature length %d, want %d", i, len(h), s.backend.Hidden()))
			return reply{}, nil, false
		}
	}
	ten := s.tenantFor(r)
	ts := s.tstats.For(ten)
	if !s.allowQuota(w, r, ten, ts, float64(len(hs))) {
		return reply{}, nil, false
	}

	ctx := r.Context()
	req := &request{
		ctx:    ctx,
		hs:     hs,
		topK:   s.clampTopK(topK),
		enq:    time.Now(),
		resp:   make(chan reply, 1),
		class:  ten.Class,
		pinned: ten.Pinned,
	}
	if err := s.b.enqueue(req); err != nil {
		if err == ErrOverloaded || err == ErrShed {
			ts.Shed.Inc()
		}
		writeUnavailable(w, r, err)
		return reply{}, nil, false
	}
	var rep reply
	select {
	case rep = <-req.resp:
	case <-ctx.Done():
		// The flush worker still answers req.resp (buffered), so
		// nothing leaks; the client has gone or timed out.
		rep.err = ctx.Err()
	}
	if meta := metaFrom(ctx); meta != nil {
		meta.items, meta.rep = len(hs), rep
	}
	if rep.err != nil {
		WriteFailure(w, r, rep.err)
		return reply{}, nil, false
	}
	ts.Admitted.Inc()
	if rep.degraded {
		ts.Degraded.Inc()
	}
	if rep.partial.Partial {
		telemetry.Mark(w, telemetry.Partial)
	}
	return rep, ten, true
}

// handleModel reports the active model: GET /v1/model.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, ModelStatusResponse{
		Version:      versionOf(s.backend),
		Categories:   s.backend.Categories(),
		Hidden:       s.backend.Hidden(),
		VersionSkew:  s.versionSkew(),
		SwapTotal:    mSwapTotal.Value(),
		CanaryReject: mCanaryRejected.Value(),
		Draining:     s.Draining(),
	})
}

// handleModelReload triggers a hot swap: POST /v1/model/reload with
// an optional {"version": "..."} body. 200 carries the now-active
// version; 409 means the candidate was rejected (failed canary, bad
// checksum, load error) and the previous version is still serving;
// 501 means this server has no registry wired.
func (s *Server) handleModelReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	fp := s.reloader.Load()
	if fp == nil {
		writeError(w, http.StatusNotImplemented, "no model registry configured (-model-root)")
		return
	}
	var body ReloadRequest
	if r.Body != nil && r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
			return
		}
	}
	active, err := (*fp)(r.Context(), body.Version)
	if err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{Version: active})
}

// handleSLO reports the rolling-window SLO summary: GET /v1/slo.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, s.slo.Summary())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ready\n"))
}

// --- helpers ---

// versionSkew reports whether the backend is serving mixed model
// versions (sharded rolling update in flight).
func (s *Server) versionSkew() bool {
	if sr, ok := s.backend.(SkewReporter); ok {
		return sr.VersionSkew()
	}
	return false
}

func (s *Server) clampTopK(k int) int {
	if k <= 0 {
		k = 1
	}
	if k > maxTopK {
		k = maxTopK
	}
	if l := s.backend.Categories(); k > l {
		k = l
	}
	return k
}

// retryAfterHeader sets the Retry-After hint every 429/503 carries.
func retryAfterHeader(w http.ResponseWriter) {
	w.Header().Set("Retry-After", retryAfterSecs)
}

// WriteFailure answers work that ended with err, judged against the
// request's context (telemetry.OutcomeOfErr): 499 once the caller hung
// up, 504 once its deadline passed, else writeUnavailable's table. The
// server and the shard worker both answer failures through it.
func WriteFailure(w http.ResponseWriter, r *http.Request, err error) {
	switch telemetry.OutcomeOfErr(r.Context(), err) {
	case telemetry.CallerCancelled:
		writeErrorReason(w, r, telemetry.StatusClientClosed, "caller_cancelled", err.Error())
	case telemetry.Deadline:
		writeErrorReason(w, r, http.StatusGatewayTimeout, "deadline", err.Error())
	default:
		writeUnavailable(w, r, err)
	}
}

// writeUnavailable maps admission and flush errors, all with a
// Retry-After hint and a machine-readable reason: full class queue or
// load shed → 429, draining → 503 marked Shed, and any other error —
// the backend's or a pinned version's — → 503 "backend".
func writeUnavailable(w http.ResponseWriter, r *http.Request, err error) {
	retryAfterHeader(w)
	code, reason := http.StatusServiceUnavailable, "backend"
	switch err {
	case ErrOverloaded:
		code, reason = http.StatusTooManyRequests, "overloaded"
	case ErrShed:
		code, reason = http.StatusTooManyRequests, "shed"
	case ErrDraining:
		reason = "draining"
		telemetry.Mark(w, telemetry.Shed)
	}
	writeErrorReason(w, r, code, reason, err.Error())
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

// writeErrorReason answers code with a machine-readable reason and
// puts both in the request's log line.
func writeErrorReason(w http.ResponseWriter, r *http.Request, code int, reason, msg string) {
	if meta := metaFrom(r.Context()); meta != nil {
		meta.errMsg = reason + ": " + msg
	}
	writeJSON(w, code, errorBody{Error: msg, Reason: reason})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
