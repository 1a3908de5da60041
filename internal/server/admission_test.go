package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"enmc/internal/tenant"
	"enmc/internal/testkit"
)

// One admission path: /v1/classify_batch is an n-item entry in the
// same weighted-fair queue as /v1/classify, so queue bounds, flush
// concurrency, shedding and the error table apply to both endpoints.

// batchOf returns n zero vectors of dimension dim.
func batchOf(n, dim int) ClassifyBatchRequest {
	b := ClassifyBatchRequest{Batch: make([][]float32, n), TopK: 1}
	for i := range b.Batch {
		b.Batch[i] = make([]float32, dim)
	}
	return b
}

// postWithin posts body to path and gives up after d: a request that
// the server parks instead of answering fails the test instead of
// hanging it.
func postWithin(t *testing.T, ts *httptest.Server, path, key string, body any, d time.Duration) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+path, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set(tenant.HeaderAPIKey, key)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	return resp
}

// post is postJSON for goroutines other than the test's own: a
// transport failure is status 0 instead of a t.Fatal, and the body is
// decoded into out when out is non-nil (a body that does not decode
// negates the status).
func post(ts *httptest.Server, path, key string, body, out any) int {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(buf))
	if err != nil {
		return 0
	}
	if key != "" {
		req.Header.Set(tenant.HeaderAPIKey, key)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if out != nil && json.NewDecoder(resp.Body).Decode(out) != nil {
		return -resp.StatusCode
	}
	return resp.StatusCode
}

// gated starts a server over a gated fake backend. The returned
// function opens the gate once; it also runs at cleanup, before the
// test server closes, so a failing test never deadlocks on posters
// parked behind the gate.
func gated(t *testing.T, cfg Config) (*Server, *fakeBackend, *httptest.Server, func()) {
	t.Helper()
	fb := &fakeBackend{hidden: 8, categories: 32, gate: make(chan struct{})}
	s, err := New(fb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	var once sync.Once
	open := func() { once.Do(func() { close(fb.gate) }) }
	t.Cleanup(func() { open(); ts.Close(); s.Drain() })
	return s, fb, ts, open
}

// TestBatchQueueFull: with the standard class pinned full, a 3-item
// batch finds no room for its items and is refused 429 "overloaded",
// exactly as a single would be.
func TestBatchQueueFull(t *testing.T) {
	testkit.NoLeaks(t)
	s, fb, ts, open := gated(t, Config{MaxBatch: 1, QueueCap: 8, FlushWorkers: 1})
	done := make(chan struct{}, 64)
	launched := saturateClass(t, s, fb, tenant.Standard, 8, func() {
		go func() {
			post(ts, "/v1/classify", "", ClassifyRequest{H: make([]float32, 8)}, nil)
			done <- struct{}{}
		}()
	})
	resp := postWithin(t, ts, "/v1/classify_batch", "", batchOf(3, 8), 2*time.Second)
	wantRejection(t, resp, http.StatusTooManyRequests, "overloaded")
	open()
	for i := 0; i < launched; i++ {
		<-done
	}
}

// TestBatchFlushConcurrency: concurrent caller batches reach the
// backend only through the flush workers — never more than
// FlushWorkers calls at once — and each batch reaches it whole.
func TestBatchFlushConcurrency(t *testing.T) {
	testkit.NoLeaks(t)
	s, fb, ts, open := gated(t, Config{MaxBatch: 2, QueueCap: 8, FlushWorkers: 1})
	const posts = 4
	codes := make(chan int, posts)
	for i := 0; i < posts; i++ {
		go func() {
			var br ClassifyBatchResponse
			code := post(ts, "/v1/classify_batch", "", batchOf(2, 8), &br)
			if code == http.StatusOK && len(br.Results) != 2 {
				code = -code
			}
			codes <- code
		}()
	}
	// Every post has arrived once one batch is in the backend, one is
	// held for the busy flush worker and two (4 items) are queued — or,
	// were batches to bypass the queue, once all four are in the backend.
	for deadline := time.Now().Add(5 * time.Second); s.b.q.LenClass(tenant.Standard) < 4 && fb.calls.Load() < posts; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("posts never all arrived: %d backend calls, %d items queued", fb.calls.Load(), s.b.q.LenClass(tenant.Standard))
		}
	}
	if n := fb.maxInflight.Load(); n > 1 {
		t.Fatalf("%d backend calls in flight with the gate shut, FlushWorkers is 1", n)
	}
	open()
	for i := 0; i < posts; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Fatalf("batch answered %d, want 200 with 2 results", c)
		}
	}
	if n := fb.maxInflight.Load(); n > 1 {
		t.Fatalf("%d backend calls in flight at once, FlushWorkers is 1", n)
	}
	fb.mu.Lock()
	defer fb.mu.Unlock()
	for _, n := range fb.sizes {
		if n != 2 {
			t.Fatalf("backend batch sizes %v: a 2-item entry was split or merged past MaxBatch", fb.sizes)
		}
	}
}

// TestBackendErrorBothEndpoints: a failing backend answers 503
// "backend" with Retry-After on both classify endpoints.
func TestBackendErrorBothEndpoints(t *testing.T) {
	testkit.NoLeaks(t)
	fb := &fakeBackend{hidden: 8, categories: 32, fail: errors.New("backend down")}
	s, err := New(fb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp := postJSON(t, ts, "/v1/classify", "", ClassifyRequest{H: make([]float32, 8)})
	wantRejection(t, resp, http.StatusServiceUnavailable, "backend")
	resp = postJSON(t, ts, "/v1/classify_batch", "", batchOf(2, 8))
	wantRejection(t, resp, http.StatusServiceUnavailable, "backend")
}

// TestBatchEntriesShed: an interactive tenant's caller batches parked
// in the queue count toward its depth, so past ShedFrac of capacity a
// standard-class single is shed.
func TestBatchEntriesShed(t *testing.T) {
	testkit.NoLeaks(t)
	res := tenantResolver(t, tenant.File{Tenants: []tenant.Spec{
		{Name: "int", Key: "k-int", Class: "interactive"},
		{Name: "std", Key: "k-std", Class: "standard"},
	}})
	s, _, ts, open := gated(t, Config{Tenants: res, MaxBatch: 2, QueueCap: 16, FlushWorkers: 1, ShedFrac: 0.5})
	// One batch in the backend, one gathered and waiting for the flush
	// worker, five (10 items, past 0.5 × 16) parked in the queue. All
	// seven fit in the queue at once, so none is refused whatever the
	// arrival order.
	const posts, parked = 7, 10
	codes := make(chan int, posts)
	for i := 0; i < posts; i++ {
		go func() { codes <- post(ts, "/v1/classify_batch", "k-int", batchOf(2, 8), nil) }()
	}
	for deadline := time.Now().Add(5 * time.Second); s.b.q.LenClass(tenant.Interactive) < parked; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("interactive queue holds %d items, want %d: caller batches never entered the queue",
				s.b.q.LenClass(tenant.Interactive), parked)
		}
	}
	resp := postWithin(t, ts, "/v1/classify", "k-std", ClassifyRequest{H: make([]float32, 8)}, 2*time.Second)
	wantRejection(t, resp, http.StatusTooManyRequests, "shed")
	open()
	for i := 0; i < posts; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Fatalf("parked interactive batch answered %d, want 200", c)
		}
	}
}

// FuzzClassifyBody sends every input to both classify endpoints: the
// answer is 200, 400 or 429 — never a panic or a 5xx — and a 200
// carries one result per item.
func FuzzClassifyBody(f *testing.F) {
	const dim, queueCap = 4, 4
	for _, seed := range []string{
		`{"h":[1,2,3,4],"top_k":2}`,
		`{"batch":[[1,2,3,4],[0,0,0,1]],"top_k":3}`,
		`{"batch":[[1,2,3,4]`,
		`{"h":[1e39,0,0,0]}`,
		`{"batch":[[1e39,0,0,0]]}`,
		`{"h":[1,2,3]}`,
		`{"batch":[[1,2,3,4],[1,2]]}`,
		`{"batch":[]}`,
		`{"batch":[[1,2,3,4],[1,2,3,4],[1,2,3,4],[1,2,3,4],[1,2,3,4]]}`,
	} {
		f.Add([]byte(seed))
	}
	s, err := New(&fakeBackend{hidden: dim, categories: 8}, Config{QueueCap: queueCap})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Drain)
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/classify", "/v1/classify_batch"} {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusOK:
			case http.StatusBadRequest, http.StatusTooManyRequests:
				continue
			default:
				t.Fatalf("%s %q: status %d %s", path, body, rec.Code, rec.Body)
			}
			if path == "/v1/classify" {
				var out ClassifyResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.TopK) == 0 {
					t.Fatalf("%s %q: 200 body %s (%v)", path, body, rec.Body, err)
				}
				continue
			}
			var in ClassifyBatchRequest
			var out ClassifyBatchResponse
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&in); err != nil {
				t.Fatalf("%s %q: 200 for a body that does not decode: %v", path, body, err)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.Results) != len(in.Batch) {
				t.Fatalf("%s %q: 200 with %d results for %d items (%v)", path, body, len(out.Results), len(in.Batch), err)
			}
		}
	})
}
