package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"net/http/httptest"

	"enmc/internal/telemetry"
	"enmc/internal/testkit"
)

func newObsServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	fb := &fakeBackend{hidden: 8, categories: 32}
	s, err := New(fb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestRequestIDEcho: every /v1/* response carries X-Request-Id — 200s,
// rejections, and 503s alike — and a caller-supplied ID is echoed
// back instead of replaced.
func TestRequestIDEcho(t *testing.T) {
	testkit.NoLeaks(t)
	s, ts := newObsServer(t, Config{})

	resp, err := postClassify(ts, classifyBody(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if id := resp.Header.Get(telemetry.HeaderRequestID); len(id) != 16 {
		t.Fatalf("200 response X-Request-Id = %q, want minted 16-hex ID", id)
	}

	// Caller-supplied ID survives.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/classify", bytes.NewReader(classifyBody(t, 8)))
	req.Header.Set(telemetry.HeaderRequestID, "caller-chose-this")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get(telemetry.HeaderRequestID); id != "caller-chose-this" {
		t.Fatalf("echoed ID = %q, want caller's", id)
	}

	// Method rejection still carries an ID.
	resp, err = ts.Client().Get(ts.URL + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
	if resp.Header.Get(telemetry.HeaderRequestID) == "" {
		t.Fatal("405 response missing X-Request-Id")
	}

	// Draining 503 still carries an ID (the unavailable path writes
	// its own headers — the echo must come first).
	s.Drain()
	resp, err = postClassify(ts, classifyBody(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d", resp.StatusCode)
	}
	if resp.Header.Get(telemetry.HeaderRequestID) == "" {
		t.Fatal("503 response missing X-Request-Id")
	}
}

// TestMetricsEndpoint: /metrics serves valid exposition text that the
// package's own parser accepts, with request counters present.
func TestMetricsEndpoint(t *testing.T) {
	testkit.NoLeaks(t)
	_, ts := newObsServer(t, Config{})
	resp, err := postClassify(ts, classifyBody(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	p, err := testkit.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("scrape invalid: %v", err)
	}
	if v, ok := p.Value("server_http_requests", nil); !ok || v < 1 {
		t.Errorf("server_http_requests = %g (found=%v), want >= 1", v, ok)
	}
	if _, ok := p.Value("server_http_classify_ns_bucket", map[string]string{"le": "+Inf"}); !ok {
		t.Error("classify latency histogram missing from scrape")
	}
	// SLO gauges publish at scrape time once traffic has flowed.
	if _, ok := p.Value("slo_error_budget_burn", map[string]string{"endpoint": "/v1/classify"}); !ok {
		t.Error("slo_error_budget_burn{endpoint=/v1/classify} missing from scrape")
	}
}

// TestSLOEndpoint: GET /v1/slo reports the rolling window, and errors
// move the burn rate.
func TestSLOEndpoint(t *testing.T) {
	testkit.NoLeaks(t)
	_, ts := newObsServer(t, Config{})
	for i := 0; i < 3; i++ {
		resp, err := postClassify(ts, classifyBody(t, 8))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// A 400 is not an SLO error (client's fault), a 405 isn't either;
	// both still count as requests on their endpoint.
	resp, err := ts.Client().Post(ts.URL+"/v1/classify", "application/json", strings.NewReader("{bad"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = ts.Client().Get(ts.URL + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sum telemetry.SLOSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if sum.WindowSeconds <= 0 || sum.Availability <= 0 {
		t.Fatalf("summary missing config: %+v", sum)
	}
	var ep *telemetry.EndpointSLO
	for i := range sum.Endpoints {
		if sum.Endpoints[i].Endpoint == "/v1/classify" {
			ep = &sum.Endpoints[i]
		}
	}
	if ep == nil {
		t.Fatalf("no /v1/classify endpoint in %+v", sum.Endpoints)
	}
	if ep.Requests != 4 {
		t.Errorf("requests = %d, want 4", ep.Requests)
	}
	if ep.ErrorRate != 0 {
		t.Errorf("4xx counted as SLO error: rate = %g", ep.ErrorRate)
	}
	if ep.P99Ms <= 0 {
		t.Errorf("p99 = %g, want > 0", ep.P99Ms)
	}
}

// TestUnknownPathsBounded: distinct unknown /v1/* paths share one SLO
// label, so neither the global nor the tenant's window, nor the gauges
// a /metrics scrape publishes, grow with outside input.
func TestUnknownPathsBounded(t *testing.T) {
	testkit.NoLeaks(t)
	s, ts := newObsServer(t, Config{})
	get := func(path string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if path != "/metrics" && resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	const n = 200
	get("/v1/nope-0")
	get("/metrics")
	gauges := len(telemetry.Default().Snapshot().Gauges)
	for i := 1; i < n; i++ {
		get(fmt.Sprintf("/v1/nope-%d", i))
	}
	get("/metrics")
	if got := len(telemetry.Default().Snapshot().Gauges); got != gauges {
		t.Errorf("%d unknown paths took the registry from %d to %d gauges", n, gauges, got)
	}
	eps := s.slo.Summary().Endpoints
	if len(eps) != 1 || eps[0].Endpoint != telemetry.Unmatched || eps[0].Requests != n {
		t.Errorf("global SLO endpoints = %+v, want one %q with %d requests", eps, telemetry.Unmatched, n)
	}
	tenants := s.tstats.Summaries(nil)
	if len(tenants) == 0 {
		t.Fatal("no tenant SLO window")
	}
	for _, sum := range tenants {
		if len(sum.SLO.Endpoints) != 1 {
			t.Errorf("tenant %q tracks %d endpoints, want 1", sum.Tenant, len(sum.SLO.Endpoints))
		}
	}
}

// TestRequestLogEmitted: with a RequestLog configured, each /v1/*
// request produces one JSON record whose req_id matches the response
// header.
func TestRequestLogEmitted(t *testing.T) {
	testkit.NoLeaks(t)
	var mu syncBuffer
	_, ts := newObsServer(t, Config{
		RequestLog: telemetry.NewRequestLog(&mu, telemetry.RequestLogOptions{JSON: true}),
	})
	resp, err := postClassify(ts, classifyBody(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wantID := resp.Header.Get(telemetry.HeaderRequestID)

	// The middleware logs after the handler returns; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for mu.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	var rec map[string]interface{}
	if err := json.Unmarshal(mu.Bytes(), &rec); err != nil {
		t.Fatalf("request log is not JSON: %v\n%s", err, mu.String())
	}
	if rec["req_id"] != wantID {
		t.Errorf("logged req_id = %v, response header %q", rec["req_id"], wantID)
	}
	if rec["path"] != "/v1/classify" || rec["status"] != float64(200) {
		t.Errorf("log record: %v", rec)
	}
	if rec["items"] != float64(1) || rec["batch"] != float64(1) {
		t.Errorf("serving metadata missing from log: %v", rec)
	}
}

// TestTraceSpanPerRequest: with a global tracer installed, each
// request records an HTTP span carrying a trace ID.
func TestTraceSpanPerRequest(t *testing.T) {
	testkit.NoLeaks(t)
	tr := telemetry.NewTracer()
	telemetry.SetGlobal(tr)
	defer telemetry.SetGlobal(nil)

	_, ts := newObsServer(t, Config{})
	resp, err := postClassify(ts, classifyBody(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var httpSpan *telemetry.Span
	for _, sp := range tr.Spans() {
		if sp.Name == "HTTP /v1/classify" {
			sp := sp
			httpSpan = &sp
		}
	}
	if httpSpan == nil {
		t.Fatal("no HTTP span recorded")
	}
	if httpSpan.TID != telemetry.TrackHTTP || len(httpSpan.Trace) != 32 {
		t.Fatalf("HTTP span = %+v, want TrackHTTP lane and 128-bit trace", *httpSpan)
	}
	if httpSpan.Dur <= 0 {
		t.Fatalf("span duration %d", httpSpan.Dur)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer (the slog handler writes
// from the serving goroutine while the test reads).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}
func (b *syncBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}
func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}
func (b *syncBuffer) String() string { return string(b.Bytes()) }
