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
	if v, ok := p.Value("server_http_requests", map[string]string{"outcome": "ok"}); !ok || v < 1 {
		t.Errorf("server_http_requests{outcome=\"ok\"} = %g (found=%v), want >= 1", v, ok)
	}
	if _, ok := p.Value("server_http_classify_ns_bucket", map[string]string{"le": "+Inf"}); !ok {
		t.Error("classify latency histogram missing from scrape")
	}
	// SLO gauges publish at scrape time once traffic has flowed.
	if _, ok := p.Value("slo_error_budget_burn", map[string]string{"endpoint": "/v1/classify"}); !ok {
		t.Error("slo_error_budget_burn{endpoint=/v1/classify} missing from scrape")
	}
}

// TestSLOEndpoint: GET /v1/slo reports the rolling window of the
// answers that are the server's to own. Malformed bodies (bad_input)
// and a draining server's 503s (shed) enter it neither as requests
// nor as errors; each is counted under its own outcome.
func TestSLOEndpoint(t *testing.T) {
	testkit.NoLeaks(t)
	s, ts := newObsServer(t, Config{})
	classifyWindow := func() (ep telemetry.EndpointSLO) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/slo")
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
		for _, e := range sum.Endpoints {
			if e.Endpoint == "/v1/classify" {
				ep = e
			}
		}
		return ep
	}
	post := func(body []byte, want int) {
		t.Helper()
		resp, err := postClassify(ts, body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("status %d, want %d", resp.StatusCode, want)
		}
	}
	badIn, shed := mRequests[telemetry.BadInput].Value(), mRequests[telemetry.Shed].Value()
	for i := 0; i < 5; i++ {
		post([]byte("{bad"), http.StatusBadRequest)
	}
	if ep := classifyWindow(); ep.Requests != 0 {
		t.Errorf("5 malformed bodies: window holds %d requests (p50 %g ms), want 0", ep.Requests, ep.P50Ms)
	}
	for i := 0; i < 3; i++ {
		post(classifyBody(t, 8), http.StatusOK)
	}
	s.Drain()
	for i := 0; i < 3; i++ {
		post(classifyBody(t, 8), http.StatusServiceUnavailable)
	}
	ep := classifyWindow()
	if ep.Requests != 3 || ep.Errors != 0 || ep.ErrorBurnRate != 0 {
		t.Errorf("3 served + 3 draining 503s: requests %d, errors %d, burn %g, want 3, 0, 0",
			ep.Requests, ep.Errors, ep.ErrorBurnRate)
	}
	if ep.P99Ms <= 0 {
		t.Errorf("p99 = %g, want > 0", ep.P99Ms)
	}
	if db, ds := mRequests[telemetry.BadInput].Value()-badIn, mRequests[telemetry.Shed].Value()-shed; db != 5 || ds != 3 {
		t.Errorf("requests{outcome=bad_input} +%d, {outcome=shed} +%d, want +5 and +3", db, ds)
	}
}

// TestUnknownPathsBounded: distinct unknown /v1/* paths are bad_input
// answers, so neither the global nor the tenant's window, nor the
// gauges a /metrics scrape publishes, grow with outside input.
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
	if eps := s.slo.Summary().Endpoints; len(eps) != 0 {
		t.Errorf("global SLO endpoints = %+v, want none", eps)
	}
	for _, sum := range s.tstats.Summaries(nil) {
		if len(sum.SLO.Endpoints) != 0 {
			t.Errorf("tenant %q tracks %d endpoints, want 0", sum.Tenant, len(sum.SLO.Endpoints))
		}
	}
}

// TestRequestLogEmitted: with a RequestLog configured, each /v1/*
// request produces one JSON record whose req_id matches the response
// header; a draining 503 logs at WARN as shed, with its reason.
func TestRequestLogEmitted(t *testing.T) {
	testkit.NoLeaks(t)
	var mu syncBuffer
	s, ts := newObsServer(t, Config{
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

	s.Drain()
	if resp, err = postClassify(ts, classifyBody(t, 8)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var lines []string
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if lines = strings.Split(strings.TrimSpace(mu.String()), "\n"); len(lines) == 2 {
			break
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["level"] != "WARN" || rec["outcome"] != "shed" || !strings.HasPrefix(fmt.Sprint(rec["error"]), "draining: ") {
		t.Errorf("draining 503 logged as %v", rec)
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
