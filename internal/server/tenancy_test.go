package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"enmc/internal/telemetry"
	"enmc/internal/tenant"
	"enmc/internal/testkit"
)

// versionedFake tags a fakeBackend with a model version, like a
// Swappable would.
type versionedFake struct {
	fakeBackend
	version string
}

func (v *versionedFake) ModelVersion() string { return v.version }

func tenantResolver(t *testing.T, f tenant.File) *tenant.Resolver {
	t.Helper()
	r, err := tenant.NewResolver(f)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func postJSON(t *testing.T, ts *httptest.Server, path, key string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set(tenant.HeaderAPIKey, key)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// wantRejection asserts the 429/503 contract: the expected status, a
// positive whole-second Retry-After, and a machine-readable reason.
func wantRejection(t *testing.T, resp *http.Response, status int, reason string) errorBody {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != status {
		t.Fatalf("status = %d, want %d", resp.StatusCode, status)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatalf("%d without Retry-After", status)
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q not a positive whole-second value", ra)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("error body not JSON: %v", err)
	}
	if eb.Reason != reason {
		t.Fatalf("reason = %q, want %q (error: %s)", eb.Reason, reason, eb.Error)
	}
	if eb.Error == "" {
		t.Fatal("empty error message")
	}
	return eb
}

// TestTenantQuota429: a tenant over its token bucket gets 429 with
// the bucket's real refill time and reason "quota"; other tenants are
// unaffected; the rejection is attributed in /v1/tenants.
func TestTenantQuota429(t *testing.T) {
	testkit.NoLeaks(t)
	res := tenantResolver(t, tenant.File{Tenants: []tenant.Spec{
		{Name: "tiny", Key: "k-tiny", Class: "interactive", Rate: 0.25, Burst: 1},
		{Name: "big", Key: "k-big", Class: "interactive", Rate: 1000},
	}})
	fb := &fakeBackend{hidden: 8, categories: 32}
	s, err := New(fb, Config{Tenants: res, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The labeled counters live on the shared telemetry registry (they
	// survive resolver reloads, and therefore test reruns in one
	// process) — baseline them and assert deltas.
	counter := func(name, ten string) int64 {
		return telemetry.Default().Counter(telemetry.LabeledName(
			name, map[string]string{"tenant": ten, "class": "interactive"})).Value()
	}
	baseTinyAdmitted := counter("tenant.admitted", "tiny")
	baseTinyThrottled := counter("tenant.throttled", "tiny")
	baseBigAdmitted := counter("tenant.admitted", "big")
	baseBigThrottled := counter("tenant.throttled", "big")

	body := ClassifyRequest{H: make([]float32, 8), TopK: 1}
	resp := postJSON(t, ts, "/v1/classify", "k-tiny", body)
	var ok ClassifyResponse
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ok); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ok.Tenant != "tiny" || ok.QoSClass != "interactive" {
		t.Fatalf("response identity %q/%q", ok.Tenant, ok.QoSClass)
	}

	// Bucket empty; refill is 1 token / 4s, so Retry-After must be the
	// real wait (4s), not the configured generic hint (1s).
	resp = postJSON(t, ts, "/v1/classify", "k-tiny", body)
	eb := wantRejection(t, resp, http.StatusTooManyRequests, "quota")
	_ = eb
	resp2 := postJSON(t, ts, "/v1/classify", "k-tiny", body)
	ra := resp2.Header.Get("Retry-After")
	resp2.Body.Close()
	if secs, _ := strconv.Atoi(ra); secs < 2 {
		t.Fatalf("Retry-After %q, want the bucket's real refill time (>= 2s)", ra)
	}

	// The other tenant still sails through.
	resp = postJSON(t, ts, "/v1/classify", "k-big", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unthrottled tenant got %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Attribution: /v1/tenants reports tiny's throttles, big's admits.
	resp, err = ts.Client().Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	var tl TenantsResponse
	if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := map[string]tenant.Summary{}
	for _, sum := range tl.Tenants {
		got[sum.Tenant] = sum
	}
	if d := got["tiny"].Throttled - baseTinyThrottled; d < 2 {
		t.Fatalf("tiny throttled delta %d: %+v", d, got["tiny"])
	}
	if d := got["tiny"].Admitted - baseTinyAdmitted; d != 1 {
		t.Fatalf("tiny admitted delta %d: %+v", d, got["tiny"])
	}
	if d := got["big"].Admitted - baseBigAdmitted; d != 1 {
		t.Fatalf("big admitted delta %d: %+v", d, got["big"])
	}
	if d := got["big"].Throttled - baseBigThrottled; d != 0 {
		t.Fatalf("big throttled delta %d: %+v", d, got["big"])
	}
	if got["tiny"].SLO.WindowSeconds <= 0 {
		t.Fatal("tenant SLO window missing")
	}
}

// TestQuotaChargesBatchItems: /v1/classify_batch charges one token
// per item, so a batch larger than the remaining quota throttles.
func TestQuotaChargesBatchItems(t *testing.T) {
	testkit.NoLeaks(t)
	res := tenantResolver(t, tenant.File{Tenants: []tenant.Spec{
		{Name: "cap", Key: "k", Rate: 0.5, Burst: 4},
	}})
	fb := &fakeBackend{hidden: 8, categories: 32}
	s, err := New(fb, Config{Tenants: res})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	batch := ClassifyBatchRequest{Batch: [][]float32{make([]float32, 8), make([]float32, 8), make([]float32, 8)}, TopK: 1}
	resp := postJSON(t, ts, "/v1/classify_batch", "k", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch of 3 against burst 4: %d", resp.StatusCode)
	}
	var br ClassifyBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if br.Tenant != "cap" || br.QoSClass != "standard" {
		t.Fatalf("batch identity %q/%q", br.Tenant, br.QoSClass)
	}
	// 1 token left; a 3-item batch must throttle.
	resp = postJSON(t, ts, "/v1/classify_batch", "k", batch)
	wantRejection(t, resp, http.StatusTooManyRequests, "quota")
}

// TestDrainingReasons: once drain begins, classify and classify_batch
// answer 503 with Retry-After and reason "draining".
func TestDrainingReasons(t *testing.T) {
	testkit.NoLeaks(t)
	fb := &fakeBackend{hidden: 8, categories: 32}
	s, err := New(fb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Drain()

	resp := postJSON(t, ts, "/v1/classify", "", ClassifyRequest{H: make([]float32, 8)})
	wantRejection(t, resp, http.StatusServiceUnavailable, "draining")
	resp = postJSON(t, ts, "/v1/classify_batch", "", ClassifyBatchRequest{Batch: [][]float32{make([]float32, 8)}})
	wantRejection(t, resp, http.StatusServiceUnavailable, "draining")
}

// saturateClass launches posters one at a time until the class queue
// is pinned full: the flush worker is parked inside the gated backend
// (fb.calls >= 1) and the queue has held `want` items continuously
// for 100ms. With the flush channel unbuffered that means the gather
// stage is blocked mid-send and the queue can no longer drain, so a
// subsequent synchronous probe must be rejected — never admitted and
// parked behind the gate. Returns how many posters were launched;
// each signals done when its request completes.
func saturateClass(t *testing.T, s *Server, fb *fakeBackend, class tenant.Class, want int, launch func()) int {
	t.Helper()
	launched := 0
	deadline := time.Now().Add(15 * time.Second)
	var stableSince time.Time
	for {
		if !time.Now().Before(deadline) {
			t.Fatalf("class %s queue never pinned at %d", class, want)
		}
		n := s.b.q.LenClass(class)
		switch {
		case n < want || fb.calls.Load() < 1:
			stableSince = time.Time{}
			if n < want {
				launched++
				launch()
			}
		case stableSince.IsZero():
			stableSince = time.Now()
		case time.Since(stableSince) > 100*time.Millisecond:
			return launched
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadReason: a full class queue answers 429 with reason
// "overloaded" (and still carries Retry-After — the contract the
// audit enforces on every 429/503 path).
func TestOverloadReason(t *testing.T) {
	testkit.NoLeaks(t)
	fb := &fakeBackend{hidden: 8, categories: 32, gate: make(chan struct{})}
	s, err := New(fb, Config{MaxBatch: 1, QueueCap: 1, FlushWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Open the gate even on a Fatal path, or ts.Close deadlocks on the
	// posters parked behind the gated backend.
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(fb.gate) }) }
	defer openGate()

	// Saturate: park flushes on the gate, fill the one-slot queue, and
	// only probe once the queue is pinned (cannot drain).
	body := ClassifyRequest{H: make([]float32, 8)}
	done := make(chan struct{}, 256)
	launched := saturateClass(t, s, fb, tenant.Standard, 1, func() {
		go func() {
			resp := postJSON(t, ts, "/v1/classify", "", body)
			resp.Body.Close()
			done <- struct{}{}
		}()
	})
	resp := postJSON(t, ts, "/v1/classify", "", body)
	wantRejection(t, resp, http.StatusTooManyRequests, "overloaded")
	openGate()
	for i := 0; i < launched; i++ {
		<-done
	}
	s.Drain()
}

// TestPinnedModelRouting: a tenant pinned to a model version is
// served by that version's backend — two distinct model_version
// values from one server — on both the micro-batched and the
// caller-batched paths.
func TestPinnedModelRouting(t *testing.T) {
	testkit.NoLeaks(t)
	active := &versionedFake{fakeBackend: fakeBackend{hidden: 8, categories: 32}, version: "v2"}
	old := &versionedFake{fakeBackend: fakeBackend{hidden: 8, categories: 32}, version: "v1"}
	res := tenantResolver(t, tenant.File{Tenants: []tenant.Spec{
		{Name: "fresh", Key: "k-fresh", Class: "interactive"},
		{Name: "frozen", Key: "k-frozen", Class: "batch", ModelVersion: "v1"},
	}})
	s, err := New(active, Config{
		Tenants: res,
		PinnedBackend: func(version string) (Backend, error) {
			if version != "v1" {
				t.Fatalf("pin resolver asked for %q", version)
			}
			return old, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := ClassifyRequest{H: make([]float32, 8), TopK: 1}
	for _, tc := range []struct{ key, wantVer, wantTenant string }{
		{"k-fresh", "v2", "fresh"},
		{"k-frozen", "v1", "frozen"},
	} {
		resp := postJSON(t, ts, "/v1/classify", tc.key, body)
		var cr ClassifyResponse
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", tc.key, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if cr.ModelVersion != tc.wantVer || cr.Tenant != tc.wantTenant {
			t.Fatalf("%s: served version %q tenant %q, want %q/%q",
				tc.key, cr.ModelVersion, cr.Tenant, tc.wantVer, tc.wantTenant)
		}
	}
	// Caller-formed batch takes the same pin.
	bresp := postJSON(t, ts, "/v1/classify_batch", "k-frozen",
		ClassifyBatchRequest{Batch: [][]float32{make([]float32, 8)}, TopK: 1})
	var br ClassifyBatchResponse
	if err := json.NewDecoder(bresp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if br.ModelVersion != "v1" {
		t.Fatalf("batch endpoint served %q, want pinned v1", br.ModelVersion)
	}
	if old.calls.Load() == 0 {
		t.Fatal("pinned backend never invoked")
	}
}

// TestFlushPartitionsByPin: one flush that mixes pinned versions
// reaches each version's backend as one batch, in order of first
// appearance, and every entry gets its own items' outcomes back.
func TestFlushPartitionsByPin(t *testing.T) {
	active := &versionedFake{fakeBackend: fakeBackend{hidden: 8, categories: 32}, version: "v2"}
	old := &versionedFake{fakeBackend: fakeBackend{hidden: 8, categories: 32}, version: "v1"}
	b := &batcher{cfg: Config{MaxBatch: 32, TopM: 1, MFloor: 1, QueueCap: 32, Watermark: 0.5},
		backend: active, q: tenant.NewWFQ[*request](32, tenant.DefaultWeights),
		pinnedBackend: func(string) (Backend, error) { return old, nil }}
	pins := []string{"v1", "", "v1", "", ""}
	var batch []*request
	for i, pin := range pins {
		batch = append(batch, &request{ctx: context.Background(), hs: batchOf(i+1, 8).Batch, topK: 1,
			resp: make(chan reply, 1), class: tenant.Standard, pinned: pin})
	}
	b.doFlush(append([]*request(nil), batch...))
	// The fake's outcome for the k-th item of a backend batch is class k.
	next := map[string]int{}
	for i, r := range batch {
		rep := <-r.resp
		want := map[string]string{"v1": "v1", "": "v2"}[r.pinned]
		if rep.err != nil || rep.version != want || len(rep.outs) != i+1 || rep.batch != 15 {
			t.Fatalf("entry %d: err %v version %q, %d outcomes, batch %d; want %q, %d, 15",
				i, rep.err, rep.version, len(rep.outs), rep.batch, want, i+1)
		}
		for k, o := range rep.outs {
			if o.Class != next[r.pinned]+k {
				t.Fatalf("entry %d item %d: class %d, want %d", i, k, o.Class, next[r.pinned]+k)
			}
		}
		next[r.pinned] += i + 1
	}
	if fmt.Sprint(old.sizes, active.sizes) != "[4] [11]" {
		t.Fatalf("backend batches v1 %v, v2 %v; want [4] and [11]", old.sizes, active.sizes)
	}
}

// TestWFQClassesSeparateQueues: saturating the batch class must not
// reject interactive admissions — the queues are per class.
func TestWFQClassesSeparateQueues(t *testing.T) {
	testkit.NoLeaks(t)
	res := tenantResolver(t, tenant.File{Tenants: []tenant.Spec{
		{Name: "int", Key: "k-int", Class: "interactive"},
		{Name: "bat", Key: "k-bat", Class: "batch"},
	}})
	fb := &fakeBackend{hidden: 8, categories: 32, gate: make(chan struct{})}
	s, err := New(fb, Config{Tenants: res, MaxBatch: 1, QueueCap: 2, FlushWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Open the gate even on a Fatal path, or ts.Close deadlocks on the
	// posters parked behind the gated backend.
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(fb.gate) }) }
	defer openGate()

	body := ClassifyRequest{H: make([]float32, 8)}
	done := make(chan int, 256)
	// Saturate the batch class: with the backend gated the pipeline
	// holds 1 in-flight + 1 gathered + QueueCap queued, and once the
	// queue is pinned full it cannot drain until the gate opens.
	launched := saturateClass(t, s, fb, tenant.Batch, 2, func() {
		go func() {
			resp := postJSON(t, ts, "/v1/classify", "k-bat", body)
			resp.Body.Close()
			done <- resp.StatusCode
		}()
	})
	// The batch class is pinned full: a synchronous probe rejects
	// immediately.
	resp := postJSON(t, ts, "/v1/classify", "k-bat", body)
	wantRejection(t, resp, http.StatusTooManyRequests, "overloaded")
	// Interactive still admits (its own queue is empty). It will block
	// behind the gated backend, so check admission via a goroutine that
	// must NOT see 429.
	intDone := make(chan int, 1)
	go func() {
		resp := postJSON(t, ts, "/v1/classify", "k-int", body)
		resp.Body.Close()
		intDone <- resp.StatusCode
	}()
	select {
	case code := <-intDone:
		t.Fatalf("interactive answered %d while gated; want admission (blocked)", code)
	case <-time.After(200 * time.Millisecond):
		// Still queued/blocked: admitted, not rejected.
	}
	openGate()
	if code := <-intDone; code != http.StatusOK {
		t.Fatalf("interactive final status %d", code)
	}
	for i := 0; i < launched; i++ {
		<-done
	}
	s.Drain()
}
