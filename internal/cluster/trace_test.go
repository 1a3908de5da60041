package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"enmc/internal/telemetry"
	"enmc/internal/testkit"
)

// TestWorkerSpansOnlyWhenTraced: a shard reply carries spans iff the
// request shipped a trace context — the untraced hot path pays
// nothing for tracing.
func TestWorkerSpansOnlyWhenTraced(t *testing.T) {
	inst, shards := fixture(t)
	w, err := NewWorker(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	body := screenFrame(t, 4, inst.Test[:2])

	post := func(trace bool) *ScreenResponse {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, "/v1/shard/screen", bytes.NewReader(body))
		req.Header.Set("Content-Type", ContentTypeScreenV2)
		if trace {
			telemetry.InjectTrace(req.Header, telemetry.NewTraceCtx())
		}
		rec := httptest.NewRecorder()
		w.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("screen: HTTP %d: %s", rec.Code, rec.Body.String())
		}
		if rec.Header().Get(telemetry.HeaderRequestID) == "" {
			t.Fatal("shard reply missing X-Request-Id")
		}
		return decodeReply(t, rec.Body.Bytes())
	}

	if sr := post(false); len(sr.Spans) != 0 {
		t.Fatalf("untraced request returned %d spans", len(sr.Spans))
	}
	sr := post(true)
	if len(sr.Spans) == 0 {
		t.Fatal("traced request returned no spans")
	}
	names := map[string]bool{}
	for _, sp := range sr.Spans {
		if sp.Dur < 0 || sp.Start < 0 {
			t.Fatalf("span %q has negative timing %+v", sp.Name, sp)
		}
		names[sp.Name] = true
	}
	// The worker wraps the pipeline in a whole-request span; the core
	// pipeline contributes the screen stage.
	if !names["shard screen ×2"] {
		t.Fatalf("no whole-request span in %v", names)
	}
	if !names["screen"] {
		t.Fatalf("no core screen span in %v", names)
	}
}

// TestDistributedTraceCapture drives a traced query through the real
// router→worker HTTP path and asserts the merged capture is the shape
// the ISSUE demands: spans from at least two process lanes (router
// PID 0, shards PID 1+i) sharing one trace ID, with worker spans
// nested inside their RPC span.
func TestDistributedTraceCapture(t *testing.T) {
	testkit.NoLeaks(t)
	inst, shards := fixture(t)
	urls, _ := startWorkers(t, shards, 1, nil)

	tr := telemetry.NewTracer()
	prev := telemetry.Global()
	telemetry.SetGlobal(tr)
	t.Cleanup(func() { telemetry.SetGlobal(prev) })
	r := dialT(t, RouterConfig{ShardMap: urls})

	tc := telemetry.NewTraceCtx()
	ctx := telemetry.WithTraceCtx(context.Background(), tc)
	if _, _, err := r.ClassifyBatchPartial(ctx, inst.Test[:1], 12, 3); err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans()
	pids := map[int]bool{}
	for _, sp := range spans {
		if sp.Trace != tc.TraceID {
			t.Fatalf("span %q has trace %q, want %q", sp.Name, sp.Trace, tc.TraceID)
		}
		pids[sp.PID] = true
	}
	if !pids[0] {
		t.Fatal("no router-side (PID 0) spans")
	}
	remote := 0
	for pid := range pids {
		if pid > 0 {
			remote++
		}
	}
	if remote < 2 {
		t.Fatalf("spans from %d remote processes, want >= 2 (PIDs seen: %v)", remote, pids)
	}

	// Worker spans must nest inside their shard's RPC span: for each
	// remote PID, every span's [start, end] lies within some PID-0 rpc
	// span's interval.
	type iv struct{ lo, hi int64 }
	var rpcs []iv
	for _, sp := range spans {
		if sp.PID == 0 {
			rpcs = append(rpcs, iv{sp.Start, sp.Start + sp.Dur})
		}
	}
	for _, sp := range spans {
		if sp.PID == 0 {
			continue
		}
		ok := false
		for _, r := range rpcs {
			if sp.Start >= r.lo && sp.Start+sp.Dur <= r.hi {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("remote span %q [%d,%d] not nested in any rpc span %v",
				sp.Name, sp.Start, sp.Start+sp.Dur, rpcs)
		}
	}

	// The merged capture exports with per-process lanes named.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"enmc-serve router"`, `"enmc-shard 0"`, `"process_name"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("chrome trace missing %s", want)
		}
	}
}

// TestUntracedRouterSendsNoHeaders: without a trace context the RPC
// carries no trace headers, so workers stay on the global-tracer path.
func TestUntracedRouterSendsNoHeaders(t *testing.T) {
	testkit.NoLeaks(t)
	inst, shards := fixture(t)
	sawTrace := false
	urls, _ := startWorkers(t, shards, 1, func(_, _ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			if req.Header.Get(telemetry.HeaderTraceID) != "" {
				sawTrace = true
			}
			h.ServeHTTP(rw, req)
		})
	})
	prev := telemetry.Global()
	telemetry.SetGlobal(telemetry.NewTracer())
	t.Cleanup(func() { telemetry.SetGlobal(prev) })
	r := dialT(t, RouterConfig{ShardMap: urls})
	if _, _, err := r.ClassifyBatchPartial(context.Background(), inst.Test[:1], 12, 3); err != nil {
		t.Fatal(err)
	}
	if sawTrace {
		t.Fatal("untraced query shipped trace headers")
	}
}

// TestWorkerMetricsEndpoint: the worker scrapes valid exposition too.
func TestWorkerMetricsEndpoint(t *testing.T) {
	_, shards := fixture(t)
	w, err := NewWorker(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", rec.Code)
	}
	p, err := testkit.ParsePrometheus(rec.Body)
	if err != nil {
		t.Fatalf("worker scrape does not parse: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("worker scrape invalid: %v", err)
	}
	if _, ok := p.Value("go_goroutines", nil); !ok {
		t.Error("runtime metrics missing from worker scrape")
	}

	req, _ = http.NewRequest(http.MethodGet, "/v1/slo", nil)
	rec = httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/slo: HTTP %d", rec.Code)
	}
	var sum telemetry.SLOSummary
	if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.WindowSeconds <= 0 {
		t.Fatalf("worker SLO summary: %+v", sum)
	}
}
