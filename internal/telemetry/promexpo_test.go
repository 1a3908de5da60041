package telemetry

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"enmc/internal/testkit"
)

func parseAndValidate(t *testing.T, text string) *testkit.PromText {
	t.Helper()
	p, err := testkit.ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	return p
}

func TestPromExpoNameSanitization(t *testing.T) {
	cases := map[string]string{
		"cluster.shard_rpc_total": "cluster_shard_rpc_total",
		"9lives":                  "_9lives",
		"a b/c-d":                 "a_b_c_d",
		"ok_name:sub":             "ok_name:sub",
		"":                        "_",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPromExpoLabelEscaping round-trips hostile label values (quotes,
// backslashes, newlines) through LabeledName → WritePrometheus →
// ParsePrometheus.
func TestPromExpoLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	hostile := `path "with" quotes\and\slashes` + "\nand a newline"
	reg.Gauge(LabeledName("evil.metric", map[string]string{
		"endpoint": hostile,
		"plain":    "ok",
	})).Set(42)
	reg.Counter(LabeledName("evil.count", map[string]string{"k": `\"`})).Add(7)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if strings.Contains(text, "slashes\nand") {
		t.Fatalf("raw newline leaked into a label value:\n%s", text)
	}
	p := parseAndValidate(t, text)
	v, found := p.Value("evil_metric", map[string]string{"endpoint": hostile, "plain": "ok"})
	if !found || v != 42 {
		t.Fatalf("hostile label value did not round-trip: found=%v v=%g\n%s", found, v, text)
	}
	if v, found := p.Value("evil_count", map[string]string{"k": `\"`}); !found || v != 7 {
		t.Fatalf("backslash-quote label did not round-trip: found=%v v=%g", found, v)
	}
}

// TestPromExpoHistogram checks cumulative buckets, the +Inf bound,
// and _sum/_count against a histogram with known contents.
func TestPromExpoHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("rpc.latency_ns", []float64{10, 100, 1000})
	for _, v := range []float64{5, 50, 50, 500, 5000} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	p := parseAndValidate(t, buf.String())

	wantBuckets := map[string]float64{"10": 1, "100": 3, "1000": 4, "+Inf": 5}
	for le, want := range wantBuckets {
		got, ok := p.Value("rpc_latency_ns_bucket", map[string]string{"le": le})
		if !ok || got != want {
			t.Errorf("bucket le=%s = %g (found=%v), want %g", le, got, ok, want)
		}
	}
	if got, _ := p.Value("rpc_latency_ns_count", nil); got != 5 {
		t.Errorf("_count = %g, want 5", got)
	}
	if got, _ := p.Value("rpc_latency_ns_sum", nil); got != 5605 {
		t.Errorf("_sum = %g, want 5605", got)
	}
	if typ := p.Types["rpc_latency_ns"]; typ != "histogram" {
		t.Errorf("TYPE = %q, want histogram", typ)
	}
}

func TestPromExpoEmptyRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, NewRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	p := parseAndValidate(t, buf.String())
	if len(p.Samples) != 0 {
		t.Fatalf("empty registry produced %d samples", len(p.Samples))
	}
	// An empty histogram still renders a complete, valid family.
	reg := NewRegistry()
	reg.Histogram("empty.hist", LatencyBuckets())
	buf.Reset()
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	p = parseAndValidate(t, buf.String())
	if v, ok := p.Value("empty_hist_bucket", map[string]string{"le": "+Inf"}); !ok || v != 0 {
		t.Fatalf("empty histogram missing +Inf bucket (found=%v v=%g)", ok, v)
	}
}

// TestPromExpoConcurrentScrape hammers instruments while scraping the
// handler — the scrape-while-writing race the -race job guards.
func TestPromExpoConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := reg.Counter("hammer.count")
			ga := reg.Gauge(LabeledName("hammer.gauge", map[string]string{"worker": string(rune('a' + g))}))
			h := reg.Histogram("hammer.hist", CountBuckets())
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				ga.Set(float64(i))
				h.Observe(float64(i % 1000))
			}
		}(g)
	}
	handler := PrometheusHandler(reg)
	for i := 0; i < 50; i++ {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != 200 {
			t.Fatalf("scrape %d: HTTP %d", i, rec.Code)
		}
		parseAndValidate(t, rec.Body.String())
	}
	close(stop)
	wg.Wait()
}

// TestPromHandlerRuntimeAndBuildInfo checks the scrape-time extras.
func TestPromHandlerRuntimeAndBuildInfo(t *testing.T) {
	rec := httptest.NewRecorder()
	PrometheusHandler(NewRegistry()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	p := parseAndValidate(t, rec.Body.String())
	if v, ok := p.Value("go_goroutines", nil); !ok || v < 1 {
		t.Errorf("go_goroutines = %g (found=%v)", v, ok)
	}
	if v, ok := p.Value("enmc_build_info", nil); !ok || v != 1 {
		t.Errorf("enmc_build_info = %g (found=%v)", v, ok)
	}
	found := false
	for _, s := range p.Samples {
		if s.Name == "enmc_build_info" {
			found = true
			if s.Labels["go_version"] == "" {
				t.Errorf("build_info missing go_version label: %v", s.Labels)
			}
		}
	}
	if !found {
		t.Error("no enmc_build_info sample")
	}
}

// TestPromHandlerCollectors verifies scrape-time collect hooks run
// before the snapshot is taken.
func TestPromHandlerCollectors(t *testing.T) {
	reg := NewRegistry()
	calls := 0
	h := PrometheusHandler(reg, func() {
		calls++
		reg.Gauge("collected.gauge").Set(float64(calls))
	})
	for i := 1; i <= 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		p := parseAndValidate(t, rec.Body.String())
		if v, ok := p.Value("collected_gauge", nil); !ok || v != float64(i) {
			t.Fatalf("scrape %d: collected_gauge = %g (found=%v)", i, v, ok)
		}
	}
}

func TestParsePrometheusRejectsMalformed(t *testing.T) {
	bad := []string{
		"name_only\n",
		"bad-name 1\n",
		"ok{unterminated=\"v 1\n",
		"ok{k=\"bad\\q\"} 1\n",
		"ok{k=\"v\",k=\"v\"} 1\n",
		"# TYPE histo weird\n",
		"# TYPE histo\n",
		"ok 1 2 3\n",
		"ok notanumber\n",
	}
	for _, text := range bad {
		if _, err := testkit.ParsePrometheus(strings.NewReader(text)); err == nil {
			t.Errorf("parser accepted malformed input %q", text)
		}
	}
}

func TestValidateCatchesBrokenHistograms(t *testing.T) {
	cases := map[string]string{
		"non-cumulative": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n",
		"missing +Inf":   "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"2\"} 2\n",
		"count mismatch": "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_count 9\n",
		"unsorted le":    "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\n",
		"bare sample":    "# TYPE h histogram\nh 3\n",
	}
	for name, text := range cases {
		p, err := testkit.ParsePrometheus(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: should parse (validation is separate): %v", name, err)
		}
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted broken histogram:\n%s", name, text)
		}
	}
}

func TestFormatPromValue(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		1.5:          "1.5",
		0:            "0",
	}
	for in, want := range cases {
		if got := formatPromValue(in); got != want {
			t.Errorf("formatPromValue(%g) = %q, want %q", in, got, want)
		}
	}
	if got := formatPromValue(math.NaN()); got != "NaN" {
		t.Errorf("NaN renders as %q", got)
	}
}
