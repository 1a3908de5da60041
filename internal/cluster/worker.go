package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"enmc/internal/core"
	"enmc/internal/distributed"
	"enmc/internal/server"
	"enmc/internal/telemetry"
)

var (
	mWorkerRequests = telemetry.OutcomeCounters(telemetry.Default(), "cluster.worker.requests")
	mWorkerItems    = telemetry.Default().Counter("cluster.worker.screen_items")
	mWorkerTraced   = telemetry.Default().Counter("cluster.worker.traced_requests")
)

// Worker serves one shard's row-slice of the class space over HTTP:
// it screens locally with its own approximate screener, recomputes
// its local candidates exactly, and ships only the (class, logit)
// pairs back — the ENMC offload split at cluster scale.
//
// Endpoints:
//
//	POST /v1/shard/screen  — v2 request frame in, response frame out
//	GET  /v1/shard/info    — shard geometry + model version
//	GET  /healthz          — liveness
//	GET  /readyz           — readiness (503 once Drain has begun;
//	                         the router's probe loop watches this)
type Worker struct {
	shard    distributed.Shard
	mux      *http.ServeMux
	draining atomic.Bool
	slo      *telemetry.SLO
	reqLog   atomic.Pointer[telemetry.RequestLog]
}

// NewWorker validates the shard and returns its HTTP worker.
func NewWorker(sh distributed.Shard) (*Worker, error) {
	if sh.Classifier == nil || sh.Screener == nil {
		return nil, fmt.Errorf("cluster: incomplete shard")
	}
	if sh.Offset < 0 {
		return nil, fmt.Errorf("cluster: negative shard offset %d", sh.Offset)
	}
	w := &Worker{shard: sh, slo: telemetry.NewSLO(telemetry.SLOConfig{})}
	w.mux = http.NewServeMux()
	w.mux.HandleFunc("/v1/shard/screen", w.handleScreen)
	w.mux.HandleFunc("/v1/shard/info", w.handleInfo)
	w.mux.HandleFunc("/v1/slo", w.handleSLO)
	w.mux.HandleFunc("/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusOK)
		_, _ = rw.Write([]byte("ok\n"))
	})
	w.mux.HandleFunc("/readyz", w.handleReadyz)
	w.mux.Handle("/metrics", telemetry.PrometheusHandler(telemetry.Default(),
		func() { w.slo.Publish(telemetry.Default()) }))
	return w, nil
}

// SetRequestLog installs (or, with nil, removes) the worker's
// structured request logger. Safe to call while serving.
func (w *Worker) SetRequestLog(l *telemetry.RequestLog) {
	w.reqLog.Store(l)
}

// Handler returns the worker's HTTP handler wrapped in the worker's
// observability middleware (request-ID echo, SLO observation,
// request logging on /v1/* paths).
func (w *Worker) Handler() http.Handler { return w.instrument(w.mux) }

// instrument is the worker-side analogue of the server middleware:
// health probes and scrapes pass through, and /v1/* requests get a
// request ID echoed, then — from the one outcome the StatusRecorder
// reports — a count in cluster.worker.requests{outcome=…}, an SLO
// observation keyed by the matched route, and a structured log record.
func (w *Worker) instrument(next *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(rw, r)
			return
		}
		start := time.Now()
		reqID := r.Header.Get(telemetry.HeaderRequestID)
		if reqID == "" {
			reqID = telemetry.NewRequestID()
		}
		rw.Header().Set(telemetry.HeaderRequestID, reqID)
		sr := &telemetry.StatusRecorder{ResponseWriter: rw}
		next.ServeHTTP(sr, r)
		latency := time.Since(start)
		outcome := sr.Outcome()
		mWorkerRequests[outcome].Inc()
		w.slo.Observe(telemetry.Endpoint(next, r), outcome, latency)
		tc, _ := telemetry.ExtractTrace(r.Header)
		w.reqLog.Load().Log(telemetry.RequestEvent{
			RequestID:    reqID,
			TraceID:      tc.TraceID,
			Method:       r.Method,
			Path:         r.URL.Path,
			Status:       sr.Status(),
			Outcome:      outcome,
			Latency:      latency,
			ModelVersion: w.shard.Version,
		})
	})
}

// handleSLO reports the worker's rolling-window SLO: GET /v1/slo.
func (w *Worker) handleSLO(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(rw, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(rw, http.StatusOK, w.slo.Summary())
}

// Info returns the shard's wire identity.
func (w *Worker) Info() ShardInfo {
	return ShardInfo{
		Offset:  w.shard.Offset,
		Classes: w.shard.Classifier.Categories(),
		Hidden:  w.shard.Classifier.Hidden(),
		Version: w.shard.Version,
	}
}

// Drain fails readiness so the router's health probes eject this
// replica before the process exits; in-flight screens complete.
func (w *Worker) Drain() { w.draining.Store(true) }

func (w *Worker) handleReadyz(rw http.ResponseWriter, _ *http.Request) {
	if w.draining.Load() {
		rw.WriteHeader(http.StatusServiceUnavailable)
		_, _ = rw.Write([]byte("draining\n"))
		return
	}
	rw.WriteHeader(http.StatusOK)
	_, _ = rw.Write([]byte("ready\n"))
}

func (w *Worker) handleInfo(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(rw, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(rw, http.StatusOK, w.Info())
}

// handleScreen runs the shard-local screen→select→exact pipeline for
// every item in the batch on the core worker pool, honoring the
// request context so a router timeout aborts between items.
//
// One codec: the body must be a v2 request frame and the reply is a
// v2 response frame whatever the Accept header says. Any other
// Content-Type is refused with 415 after a bounded drain — Go's server
// only auto-drains small remainders, so an unread body would tear down
// the keep-alive connection. The frame decodes into a pooled scratch,
// so the steady state allocates nothing.
func (w *Worker) handleScreen(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(rw, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if !strings.HasPrefix(r.Header.Get("Content-Type"), ContentTypeScreenV2) {
		_, _ = io.Copy(io.Discard, io.LimitReader(r.Body, MaxFrameBytes))
		writeError(rw, http.StatusUnsupportedMediaType, "POST "+ContentTypeScreenV2)
		return
	}
	sc := GetWireScratch()
	defer sc.Release()
	frame, err := sc.ReadFrame(r.Body)
	if err != nil {
		writeError(rw, http.StatusBadRequest, "bad frame: "+err.Error())
		return
	}
	if n, _ := io.Copy(io.Discard, io.LimitReader(r.Body, 16)); n != 0 {
		writeError(rw, http.StatusBadRequest, "bad frame: trailing bytes after the length-prefixed frame")
		return
	}
	m, batch, err := DecodeScreenRequest(frame, sc)
	if err != nil {
		writeError(rw, http.StatusBadRequest, "bad frame: "+err.Error())
		return
	}
	if len(batch) == 0 {
		writeError(rw, http.StatusBadRequest, "empty batch")
		return
	}
	d := w.shard.Classifier.Hidden()
	for i, h := range batch {
		if len(h) != d {
			writeError(rw, http.StatusBadRequest,
				fmt.Sprintf("item %d: feature length %d, want %d", i, len(h), d))
			return
		}
	}
	if m < 1 {
		m = 1
	}
	if l := w.shard.Classifier.Categories(); m > l {
		m = l
	}

	resp := ScreenResponse{
		Offset:  w.shard.Offset,
		Classes: w.shard.Classifier.Categories(),
		Version: w.shard.Version,
		Items:   sc.growItems(len(batch)),
	}
	// One flat candidate arena for the whole reply: item i owns the
	// disjoint region [i*m, (i+1)*m), so the concurrent visit callbacks
	// below never share bytes and the per-item `make` is gone.
	flat := sc.growCands(len(batch) * m)

	// Trace propagation: when the router shipped a trace context, the
	// screen pipeline records into a fresh per-request tracer whose
	// epoch is request receipt — its span ticks are relative by
	// construction, so they return on the wire for the router to
	// rebase under this RPC's span (no clock sync; see SpanWire).
	// Untraced requests keep the zero-overhead global-tracer path.
	tc, traced := telemetry.ExtractTrace(r.Header)
	tr := telemetry.Global()
	if traced {
		mWorkerTraced.Inc()
		tr = telemetry.NewTracer()
	}
	reqStart := tr.Now()
	err = core.ClassifyBatchVisitCtx(r.Context(), w.shard.Classifier, w.shard.Screener,
		batch, core.TopM(m), tr,
		func(i int, res *core.Result, _ *core.Scratch) {
			cands := flat[i*m : i*m+len(res.Candidates) : i*m+m]
			for j, c := range res.Candidates {
				cands[j] = WireCandidate{Class: w.shard.Offset + c, Logit: res.Exact[j]}
			}
			resp.Items[i] = cands
		})
	if err != nil {
		// 499 when the router abandoned the leg (its caller hung up or
		// the attempt timed out): the reply will not be read.
		server.WriteFailure(rw, r, err)
		return
	}
	if traced {
		tr.Add(telemetry.Span{
			Name: fmt.Sprintf("shard screen ×%d", len(batch)), Cat: "shard",
			TID: telemetry.TrackPipeline, Start: reqStart, Dur: tr.Now() - reqStart,
			Trace: tc.TraceID,
		})
		for _, sp := range tr.Spans() {
			resp.Spans = append(resp.Spans, SpanWire{
				Name: sp.Name, Cat: sp.Cat, TID: sp.TID, Start: sp.Start, Dur: sp.Dur,
			})
		}
	}
	mWorkerItems.Add(int64(len(batch)))
	buf, err := AppendScreenResponse(GetEncodeBuf(), &resp)
	if err != nil {
		writeError(rw, http.StatusInternalServerError, err.Error())
		return
	}
	rw.Header().Set("Content-Type", ContentTypeScreenV2)
	rw.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	rw.WriteHeader(http.StatusOK)
	_, _ = rw.Write(buf)
	PutEncodeBuf(buf)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(rw http.ResponseWriter, code int, msg string) {
	writeJSON(rw, code, errorBody{Error: msg})
}

func writeJSON(rw http.ResponseWriter, code int, v interface{}) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	_ = json.NewEncoder(rw).Encode(v)
}
