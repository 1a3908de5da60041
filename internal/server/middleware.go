package server

import (
	"context"
	"net/http"
	"strings"
	"time"

	"enmc/internal/telemetry"
	"enmc/internal/tenant"
)

// Observability middleware: every /v1/* request gets a request ID
// (echoed on X-Request-Id even for 429/5xx), a distributed trace
// context when tracing is on, one TrackHTTP span, and — from the one
// outcome its StatusRecorder reports — an SLO observation, a count in
// server.http.requests{outcome=…} and one request-log record. Handlers
// report serving metadata back through the reqMeta in the context.

// mRequests counts every /v1/* answer by outcome.
var mRequests = telemetry.OutcomeCounters(telemetry.Default(), "server.http.requests")

// reqMeta is the per-request metadata channel between handlers and
// the instrument middleware. Handlers fill what they know; the
// middleware reads it after the handler returns.
type reqMeta struct {
	items  int
	rep    reply // the classify flush's answer
	errMsg string
	// tenant is the identity the middleware resolved from the API key
	// before invoking the handler — one resolution per request.
	tenant *tenant.Tenant
}

type reqMetaKey struct{}

// metaFrom returns the request's reqMeta, or nil outside the
// instrumented path (direct handler tests).
func metaFrom(ctx context.Context) *reqMeta {
	m, _ := ctx.Value(reqMetaKey{}).(*reqMeta)
	return m
}

// instrument wraps the mux with the per-request observability
// pipeline. Non-/v1/ paths (health probes, /metrics itself) pass
// through untouched so scrapes and probes never pollute the SLO. The
// SLO windows and the trace span are keyed by the route the mux
// matched, so unknown paths share one label.
func (s *Server) instrument(next *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		endpoint := telemetry.Endpoint(next, r)

		// Request identity: honor a caller-supplied ID (so a proxy's ID
		// survives), else mint one; echo it on every response including
		// rejections, before the handler can write a status.
		reqID := r.Header.Get(telemetry.HeaderRequestID)
		if reqID == "" {
			reqID = telemetry.NewRequestID()
		}
		w.Header().Set(telemetry.HeaderRequestID, reqID)

		ctx := r.Context()
		tr := telemetry.Global()
		var tc telemetry.TraceCtx
		var spanStart int64
		if tr.Enabled() {
			// Adopt a propagated trace when the caller sent one (the
			// service can itself be a hop), else start a fresh root.
			var ok bool
			if tc, ok = telemetry.ExtractTrace(r.Header); !ok {
				tc = telemetry.NewTraceCtx()
			}
			ctx = telemetry.WithTraceCtx(ctx, tc)
			spanStart = tr.Now()
		}

		meta := &reqMeta{tenant: s.tenants.Resolve(r.Header.Get(tenant.HeaderAPIKey))}
		ctx = context.WithValue(ctx, reqMetaKey{}, meta)
		sw := &telemetry.StatusRecorder{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(ctx))

		outcome := sw.Outcome()
		latency := time.Since(start)
		mRequests[outcome].Inc()
		s.slo.Observe(endpoint, outcome, latency)
		// The tenant's own SLO window rolls alongside the global one.
		s.tstats.For(meta.tenant).Observe(endpoint, outcome, latency)
		if tr.Enabled() {
			tr.Add(telemetry.Span{
				Name:   "HTTP " + endpoint,
				Cat:    "http",
				TID:    telemetry.TrackHTTP,
				Start:  spanStart,
				Dur:    tr.Now() - spanStart,
				Trace:  tc.TraceID,
				Tenant: meta.tenant.Name,
			})
		}
		s.reqLog.Log(telemetry.RequestEvent{
			RequestID:     reqID,
			TraceID:       tc.TraceID,
			Tenant:        meta.tenant.Name,
			Method:        r.Method,
			Path:          r.URL.Path,
			Status:        sw.Status(),
			Outcome:       outcome,
			Latency:       latency,
			Items:         meta.items,
			BatchSize:     meta.rep.batch,
			QueueNs:       meta.rep.queuedNs,
			ModelVersion:  meta.rep.version,
			Degraded:      meta.rep.degraded,
			MissingShards: meta.rep.partial.MissingShards,
			Err:           meta.errMsg,
		})
	})
}
