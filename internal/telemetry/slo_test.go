package telemetry

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"
)

// testSLO builds a tracker on a stubbed clock the test can advance.
func testSLO(cfg SLOConfig) (*SLO, *time.Time) {
	s := NewSLO(cfg)
	now := time.Unix(1_000_000, 0)
	s.now = func() time.Time { return now }
	return s, &now
}

func findEndpoint(t *testing.T, sum SLOSummary, name string) EndpointSLO {
	t.Helper()
	for _, e := range sum.Endpoints {
		if e.Endpoint == name {
			return e
		}
	}
	t.Fatalf("endpoint %q missing from summary %+v", name, sum)
	return EndpointSLO{}
}

// TestSLOErrorBurnRate: 99 OK answers and one of each outcome. Only
// Fault and Deadline burn budget; Shed, BadInput and CallerCancelled
// are not requests of the window at all.
func TestSLOErrorBurnRate(t *testing.T) {
	for _, c := range []struct {
		o                Outcome
		requests, errors int64
	}{
		{OK, 100, 0}, {Partial, 100, 0}, {Fault, 100, 1}, {Deadline, 100, 1},
		{Shed, 99, 0}, {BadInput, 99, 0}, {CallerCancelled, 99, 0},
	} {
		s, _ := testSLO(SLOConfig{Window: time.Minute, Availability: 0.99})
		for i := 0; i < 99; i++ {
			s.Observe("/v1/classify", OK, time.Millisecond)
		}
		s.Observe("/v1/classify", c.o, time.Millisecond)

		e := findEndpoint(t, s.Summary(), "/v1/classify")
		if e.Requests != c.requests || e.Errors != c.errors {
			t.Fatalf("%s: requests/errors = %d/%d, want %d/%d", c.o, e.Requests, e.Errors, c.requests, c.errors)
		}
		if c.errors == 0 {
			continue
		}
		if e.ErrorRate != 0.01 {
			t.Errorf("%s: error rate = %g, want 0.01", c.o, e.ErrorRate)
		}
		// 1% observed on a 1% budget: burning at exactly the sustainable pace.
		if e.ErrorBurnRate < 0.999 || e.ErrorBurnRate > 1.001 {
			t.Errorf("%s: burn rate = %g, want 1.0", c.o, e.ErrorBurnRate)
		}
	}
}

func TestSLOWindowAgesOut(t *testing.T) {
	s, now := testSLO(SLOConfig{Window: 30 * time.Second})
	s.Observe("/v1/classify", Fault, time.Millisecond)
	if e := findEndpoint(t, s.Summary(), "/v1/classify"); e.Errors != 1 {
		t.Fatalf("fresh error not counted: %+v", e)
	}
	// One window later the burst has fully aged out.
	*now = now.Add(31 * time.Second)
	if e := findEndpoint(t, s.Summary(), "/v1/classify"); e.Requests != 0 || e.Errors != 0 {
		t.Fatalf("stale traffic still counted after window: %+v", e)
	}
	// And the recycled slot starts clean.
	s.Observe("/v1/classify", OK, time.Millisecond)
	if e := findEndpoint(t, s.Summary(), "/v1/classify"); e.Requests != 1 || e.Errors != 0 {
		t.Fatalf("recycled bucket kept stale counts: %+v", e)
	}
}

func TestSLOFastWindow(t *testing.T) {
	s, now := testSLO(SLOConfig{Window: 100 * time.Second, Availability: 0.9})
	// Old errors: inside the full window, outside the fast window.
	s.Observe("/v1/x", Fault, 0)
	s.Observe("/v1/x", Deadline, 0)
	*now = now.Add(50 * time.Second)
	// Recent traffic is clean.
	for i := 0; i < 8; i++ {
		s.Observe("/v1/x", OK, 0)
	}
	e := findEndpoint(t, s.Summary(), "/v1/x")
	if e.ErrorBurnRate <= 0 {
		t.Errorf("full-window burn = %g, want > 0 (old errors still in window)", e.ErrorBurnRate)
	}
	if e.FastBurnRate != 0 {
		t.Errorf("fast burn = %g, want 0 (incident over)", e.FastBurnRate)
	}
}

func TestSLOLatencyQuantilesAndSlowRate(t *testing.T) {
	s, _ := testSLO(SLOConfig{Window: time.Minute, LatencyObjective: 100 * time.Millisecond, LatencyTarget: 0.9})
	// 90 fast successes, 10 slow ones, plus errors whose (fast) latency
	// must not pollute the quantiles.
	for i := 0; i < 90; i++ {
		s.Observe("/v1/classify", OK, 10*time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		s.Observe("/v1/classify", OK, 500*time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		s.Observe("/v1/classify", Fault, time.Microsecond)
		s.Observe("/v1/classify", BadInput, time.Microsecond)
	}
	e := findEndpoint(t, s.Summary(), "/v1/classify")
	if e.SlowRate != 0.1 {
		t.Errorf("slow rate = %g, want 0.1 (10 of 100 successes)", e.SlowRate)
	}
	// 10% slow on a 10% budget → latency burn 1.0.
	if e.LatencyBurnRate < 0.999 || e.LatencyBurnRate > 1.001 {
		t.Errorf("latency burn = %g, want 1.0", e.LatencyBurnRate)
	}
	if e.P50Ms <= 1 || e.P50Ms > 50 {
		t.Errorf("p50 = %gms, want ~10ms", e.P50Ms)
	}
	if e.P99Ms < 100 {
		t.Errorf("p99 = %gms, want in the slow tail (>=100ms)", e.P99Ms)
	}
}

func TestSLOPublishGauges(t *testing.T) {
	s, _ := testSLO(SLOConfig{Window: time.Minute, Availability: 0.99})
	s.Observe("/v1/classify", OK, time.Millisecond)
	s.Observe("/v1/classify", Fault, time.Millisecond)
	reg := NewRegistry()
	s.Publish(reg)
	snap := reg.Snapshot()

	winKey := LabeledName("slo_error_budget_burn",
		map[string]string{"endpoint": "/v1/classify", "window": time.Minute.String()})
	if v, ok := snap.Gauges[winKey]; !ok || v <= 0 {
		t.Errorf("burn gauge %q = %g (ok=%v)", winKey, v, ok)
	}
	reqKey := LabeledName("slo_requests_window", map[string]string{"endpoint": "/v1/classify"})
	if v := snap.Gauges[reqKey]; v != 2 {
		t.Errorf("requests gauge = %g, want 2", v)
	}
	// Nil-safety.
	var nilSLO *SLO
	nilSLO.Observe("/x", OK, 0)
	nilSLO.Publish(reg)
	_ = nilSLO.Summary()
}

func TestSLOConfigDefaults(t *testing.T) {
	s := NewSLO(SLOConfig{})
	cfg := s.cfg
	if cfg.Window != 5*time.Minute || s.bucket != 10*time.Second ||
		s.fast != 30*time.Second || cfg.Availability != 0.999 ||
		cfg.LatencyObjective != 250*time.Millisecond || cfg.LatencyTarget != 0.99 {
		t.Fatalf("defaults resolved to %+v, bucket %v, fast %v", cfg, s.bucket, s.fast)
	}
	// A short window keeps 1s buckets and a one-bucket fast window.
	if s := NewSLO(SLOConfig{Window: 5 * time.Second}); s.bucket != time.Second || s.fast != time.Second {
		t.Fatalf("5s window: bucket %v, fast %v, want 1s and 1s", s.bucket, s.fast)
	}
}

// TestOutcomeRules pins the two places an outcome is decided — the
// status table and the error rule — and a StatusRecorder's mark
// overriding the table.
func TestOutcomeRules(t *testing.T) {
	for status, want := range map[int]Outcome{
		200: OK, 204: OK, 302: OK, 400: BadInput, 404: BadInput, 409: BadInput,
		429: Shed, 499: CallerCancelled, 500: Fault, 503: Fault, 504: Deadline,
	} {
		if got := OutcomeOf(status); got != want {
			t.Errorf("OutcomeOf(%d) = %s, want %s", status, got, want)
		}
	}
	live := context.Background()
	cancelled, cancel := context.WithCancel(live)
	cancel()
	expired, cancel := context.WithDeadline(live, time.Unix(0, 0))
	defer cancel()
	fail := errors.New("boom")
	for _, c := range []struct {
		ctx  context.Context
		err  error
		want Outcome
	}{
		{live, nil, OK}, {cancelled, nil, OK}, {live, fail, Fault},
		{cancelled, fail, CallerCancelled}, {expired, context.DeadlineExceeded, Deadline},
	} {
		if got := OutcomeOfErr(c.ctx, c.err); got != c.want {
			t.Errorf("OutcomeOfErr(%v, %v) = %s, want %s", c.ctx.Err(), c.err, got, c.want)
		}
	}
	rec := &StatusRecorder{ResponseWriter: httptest.NewRecorder()}
	rec.WriteHeader(503)
	if rec.Outcome() != Fault {
		t.Errorf("unmarked 503: %s, want fault", rec.Outcome())
	}
	Mark(rec, Shed)
	if rec.Outcome() != Shed {
		t.Errorf("503 marked shed: %s", rec.Outcome())
	}
}
