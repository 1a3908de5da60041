package telemetry

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// SLO tracking: rolling-window latency quantiles, error rate and
// error-budget burn rate per endpoint.
//
// The window is a ring of fixed-duration buckets (default 5 minutes
// in 10-second steps): each request lands in the current bucket, and
// a summary merges every bucket still inside the window — so
// quantiles and rates decay stale traffic instead of averaging over
// the process's whole life, and a burst of errors stops burning the
// budget one window-length after it ends.
//
// Burn rate is the standard SRE multiplier: observed bad-event rate
// divided by the rate the objective allows (1-objective). Burn 1.0
// spends the error budget exactly at the sustainable pace; burn 10
// exhausts a 30-day budget in 3 days. Two windows are reported — the
// full window and a short "fast" suffix of it — because alerting on
// (slow AND fast) burn is what distinguishes an ongoing incident
// from the tail of a resolved one.

// SLOConfig tunes a tracker. Zero values take the defaults.
type SLOConfig struct {
	// Window is the full rolling window (default 5m): a ring of
	// Window/30 buckets of at least 1s, whose last Window/10 (at least
	// one bucket) is the short "fast" burn-rate window.
	Window time.Duration
	// Availability is the success-rate objective (default 0.999):
	// answers that are neither Fault nor Deadline / all counted answers.
	Availability float64
	// LatencyObjective and LatencyTarget form the latency SLO: at
	// least LatencyTarget (default 0.99) of successful requests
	// answer within LatencyObjective (default 250ms).
	LatencyObjective time.Duration
	LatencyTarget    float64
}

func (c *SLOConfig) defaults() {
	if c.Window <= 0 {
		c.Window = 5 * time.Minute
	}
	if c.Availability <= 0 || c.Availability >= 1 {
		c.Availability = 0.999
	}
	if c.LatencyObjective <= 0 {
		c.LatencyObjective = 250 * time.Millisecond
	}
	if c.LatencyTarget <= 0 || c.LatencyTarget >= 1 {
		c.LatencyTarget = 0.99
	}
}

// sloBucket is one time slice of one endpoint's traffic.
type sloBucket struct {
	epoch    int64 // bucket index since the unix epoch; 0 = empty
	requests int64
	errors   int64 // Fault and Deadline answers
	slow     int64 // OK/Partial answers over LatencyObjective
	lat      []int64
}

// SLO is a rolling-window tracker over named endpoints. Safe for
// concurrent use; Observe is one mutex acquisition plus integer
// arithmetic, which is noise at HTTP-request granularity.
type SLO struct {
	cfg    SLOConfig
	bucket time.Duration // ring granularity
	fast   time.Duration // short burn-rate window
	bounds []float64     // latency histogram bounds shared by all buckets

	mu        sync.Mutex
	endpoints map[string][]sloBucket // one ring per endpoint

	// now is stubbed by tests.
	now func() time.Time
}

// NewSLO builds a tracker.
func NewSLO(cfg SLOConfig) *SLO {
	cfg.defaults()
	bucket := max(cfg.Window/30, time.Second)
	return &SLO{
		cfg:       cfg,
		bucket:    bucket,
		fast:      max(cfg.Window/10, bucket),
		bounds:    LatencyBuckets(),
		endpoints: map[string][]sloBucket{},
		now:       time.Now,
	}
}

func (s *SLO) nBuckets() int {
	n := int(s.cfg.Window / s.bucket)
	if n < 1 {
		n = 1
	}
	return n
}

// Observe records one answer by its outcome: Fault and Deadline count
// as errors, OK and Partial enter the latency quantiles, and Shed,
// BadInput and CallerCancelled — designed answers, not the server's
// failures nor its latency — are not recorded at all. Nil-safe.
func (s *SLO) Observe(endpoint string, o Outcome, latency time.Duration) {
	if s == nil || o == Shed || o == BadInput || o == CallerCancelled {
		return
	}
	epoch := s.now().UnixNano() / int64(s.bucket)
	s.mu.Lock()
	defer s.mu.Unlock()
	ring := s.endpoints[endpoint]
	if ring == nil {
		ring = make([]sloBucket, s.nBuckets())
		s.endpoints[endpoint] = ring
	}
	b := &ring[int(epoch)%len(ring)]
	if b.epoch != epoch {
		// The slot is empty or belongs to an old cycle: recycle it in place.
		if b.lat == nil {
			b.lat = make([]int64, len(s.bounds)+1)
		}
		clear(b.lat)
		*b = sloBucket{epoch: epoch, lat: b.lat}
	}
	b.requests++
	if o == Fault || o == Deadline {
		// A fast failure must not flatter the latency SLO.
		b.errors++
		return
	}
	if latency > s.cfg.LatencyObjective {
		b.slow++
	}
	i, _ := slices.BinarySearch(s.bounds, float64(latency))
	b.lat[i]++
}

// EndpointSLO is one endpoint's rolling-window summary.
type EndpointSLO struct {
	Endpoint string `json:"endpoint"`
	Requests int64  `json:"requests"`
	Errors   int64  `json:"errors"`
	// ErrorRate is errors/requests over the window.
	ErrorRate float64 `json:"error_rate"`
	// ErrorBurnRate is ErrorRate / (1 - Availability): 1.0 spends
	// the availability budget exactly at the sustainable pace.
	ErrorBurnRate float64 `json:"error_burn_rate"`
	// FastBurnRate is the same ratio over the short fast window
	// suffix — the "is it still burning right now" signal.
	FastBurnRate float64 `json:"fast_burn_rate"`
	// SlowRate is the fraction of successes over LatencyObjective;
	// LatencyBurnRate is SlowRate / (1 - LatencyTarget).
	SlowRate        float64 `json:"slow_rate"`
	LatencyBurnRate float64 `json:"latency_burn_rate"`
	P50Ms           float64 `json:"p50_ms"`
	P90Ms           float64 `json:"p90_ms"`
	P99Ms           float64 `json:"p99_ms"`
}

// SLOSummary is the GET /v1/slo body.
type SLOSummary struct {
	WindowSeconds      float64       `json:"window_seconds"`
	FastWindowSeconds  float64       `json:"fast_window_seconds"`
	Availability       float64       `json:"availability_objective"`
	LatencyObjectiveMs float64       `json:"latency_objective_ms"`
	LatencyTarget      float64       `json:"latency_target"`
	Endpoints          []EndpointSLO `json:"endpoints"`
}

// Summary computes the rolling-window view, endpoint-sorted.
func (s *SLO) Summary() SLOSummary {
	out := SLOSummary{}
	if s == nil {
		return out
	}
	out.WindowSeconds = s.cfg.Window.Seconds()
	out.FastWindowSeconds = s.fast.Seconds()
	out.Availability = s.cfg.Availability
	out.LatencyObjectiveMs = float64(s.cfg.LatencyObjective) / 1e6
	out.LatencyTarget = s.cfg.LatencyTarget

	nowEpoch := s.now().UnixNano() / int64(s.bucket)
	oldest := nowEpoch - int64(s.nBuckets()) + 1
	fastOldest := nowEpoch - int64(s.fast/s.bucket) + 1

	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.endpoints))
	for name := range s.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)

	errBudget := 1 - s.cfg.Availability
	latBudget := 1 - s.cfg.LatencyTarget
	merged := make([]int64, len(s.bounds)+1)
	for _, name := range names {
		ring := s.endpoints[name]
		e := EndpointSLO{Endpoint: name}
		var slow, ok int64
		var fastReq, fastErr int64
		for i := range merged {
			merged[i] = 0
		}
		for i := range ring {
			b := &ring[i]
			if b.epoch < oldest { // empty or aged out
				continue
			}
			e.Requests += b.requests
			e.Errors += b.errors
			slow += b.slow
			if b.epoch >= fastOldest {
				fastReq += b.requests
				fastErr += b.errors
			}
			for j, c := range b.lat {
				merged[j] += c
				ok += c
			}
		}
		if e.Requests > 0 {
			e.ErrorRate = float64(e.Errors) / float64(e.Requests)
			e.ErrorBurnRate = e.ErrorRate / errBudget
		}
		if fastReq > 0 {
			e.FastBurnRate = (float64(fastErr) / float64(fastReq)) / errBudget
		}
		if ok > 0 {
			e.SlowRate = float64(slow) / float64(ok)
			e.LatencyBurnRate = e.SlowRate / latBudget
			e.P50Ms = s.quantileMs(merged, ok, 0.50)
			e.P90Ms = s.quantileMs(merged, ok, 0.90)
			e.P99Ms = s.quantileMs(merged, ok, 0.99)
		}
		out.Endpoints = append(out.Endpoints, e)
	}
	return out
}

// quantileMs interpolates the q-quantile (in milliseconds) from the
// merged latency counts — same estimator as HistogramSnapshot.
func (s *SLO) quantileMs(counts []int64, total int64, q float64) float64 {
	snap := HistogramSnapshot{Count: total}
	snap.Buckets = make([]Bucket, len(counts))
	for i, c := range counts {
		if i < len(s.bounds) {
			snap.Buckets[i] = Bucket{UpperBound: s.bounds[i], Count: c}
		} else {
			snap.Buckets[i] = Bucket{Overflow: true, Count: c}
		}
	}
	return snap.Quantile(q) / 1e6
}

// Publish writes the current summary into reg as labeled gauges —
// the scrape-time collector hook for PrometheusHandler, so burn
// rates appear on /metrics without per-request gauge math:
//
//	slo_error_budget_burn{endpoint="/v1/classify",window="5m0s"} 0.4
//	slo_error_budget_burn{endpoint="/v1/classify",window="30s"}  0
//	slo_latency_budget_burn{endpoint="/v1/classify"}             0.1
//	slo_error_rate{endpoint="/v1/classify"}                      0.0004
//	slo_latency_p99_ms{endpoint="/v1/classify"}                  12.8
func (s *SLO) Publish(reg *Registry) {
	if s == nil || reg == nil {
		return
	}
	sum := s.Summary()
	slowWin := s.cfg.Window.String()
	fastWin := s.fast.String()
	for _, e := range sum.Endpoints {
		l := map[string]string{"endpoint": e.Endpoint}
		lw := map[string]string{"endpoint": e.Endpoint, "window": slowWin}
		lf := map[string]string{"endpoint": e.Endpoint, "window": fastWin}
		reg.Gauge(LabeledName("slo_error_budget_burn", lw)).Set(e.ErrorBurnRate)
		reg.Gauge(LabeledName("slo_error_budget_burn", lf)).Set(e.FastBurnRate)
		reg.Gauge(LabeledName("slo_latency_budget_burn", l)).Set(e.LatencyBurnRate)
		reg.Gauge(LabeledName("slo_error_rate", l)).Set(e.ErrorRate)
		reg.Gauge(LabeledName("slo_requests_window", l)).Set(float64(e.Requests))
		reg.Gauge(LabeledName("slo_latency_p50_ms", l)).Set(e.P50Ms)
		reg.Gauge(LabeledName("slo_latency_p99_ms", l)).Set(e.P99Ms)
	}
}
