package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enmc/internal/core"
	"enmc/internal/quant"
	"enmc/internal/telemetry"
	"enmc/internal/tenant"
	"enmc/internal/testkit"
	"enmc/internal/workload"
)

// fakeBackend is a controllable Backend: when gate is non-nil every
// ClassifyBatch blocks until the gate closes (or the ctx dies),
// which lets tests hold the pipeline at a precise saturation point.
// A non-nil fail makes every call fail with it.
type fakeBackend struct {
	hidden     int
	categories int
	gate       chan struct{}
	fail       error

	calls       atomic.Int64
	inflight    atomic.Int64
	maxInflight atomic.Int64 // most calls ever in flight at once
	ctxReturns  atomic.Int64 // calls that returned on ctx before the gate opened
	mu          sync.Mutex
	sizes       []int
	ms          []int
}

func (f *fakeBackend) Hidden() int     { return f.hidden }
func (f *fakeBackend) Categories() int { return f.categories }

func (f *fakeBackend) ClassifyBatch(ctx context.Context, batch [][]float32, m, topK int) ([]Outcome, error) {
	f.calls.Add(1)
	n := f.inflight.Add(1)
	defer f.inflight.Add(-1)
	for old := f.maxInflight.Load(); n > old && !f.maxInflight.CompareAndSwap(old, n); old = f.maxInflight.Load() {
	}
	f.mu.Lock()
	f.sizes = append(f.sizes, len(batch))
	f.ms = append(f.ms, m)
	f.mu.Unlock()
	if f.gate != nil {
		select {
		case <-f.gate:
		case <-ctx.Done():
			f.ctxReturns.Add(1)
			return nil, ctx.Err()
		}
	}
	if f.fail != nil {
		return nil, f.fail
	}
	out := make([]Outcome, len(batch))
	for i := range out {
		c := i % f.categories
		out[i] = Outcome{Class: c, TopK: []Candidate{{Class: c, Logit: 1}}}
	}
	return out, nil
}

func classifyBody(t *testing.T, dim int) []byte {
	t.Helper()
	h := make([]float32, dim)
	for i := range h {
		h[i] = float32(i)
	}
	buf, err := json.Marshal(ClassifyRequest{H: h, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func postClassify(ts *httptest.Server, body []byte) (*http.Response, error) {
	return ts.Client().Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
}

// submit admits an entry of n items straight into the batcher and
// returns its reply channel. The channel holds two replies, so a
// duplicate answer is counted instead of blocking the flush worker.
func submit(t *testing.T, s *Server, n int) chan reply {
	t.Helper()
	r := &request{ctx: context.Background(), hs: batchOf(n, 8).Batch, topK: 1, enq: time.Now(),
		resp: make(chan reply, 2), class: tenant.Standard}
	if err := s.b.enqueue(r); err != nil {
		t.Fatal(err)
	}
	return r.resp
}

// waitFor polls cond every millisecond and fails the test if it does
// not hold within 2 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestCoalesceWhileBusy: a batch grows only while every flush worker
// is busy. With the one worker held by the head entry, the next entry
// is held for it and every same-class arrival joins that batch, up to
// MaxBatch items; the rest of the backlog forms the following flush.
// Caller batches coalesce the same way as singles.
func TestCoalesceWhileBusy(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxBatch int
		head     int   // items of the entry that holds the worker
		held     int   // items of the entry the collector then holds
		arrivals []int // items of the entries that arrive after it
		queued   int   // items left queued once the held batch is full
		want     []int // backend batch sizes
	}{
		{"singles", 32, 1, 1, []int{1, 1}, 0, []int{1, 3}},
		{"caller-batches", 32, 2, 3, []int{2, 1}, 0, []int{2, 6}},
		{"backlog-past-max-batch", 4, 1, 1, []int{1, 1, 1, 1, 1}, 2, []int{1, 4, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testkit.NoLeaks(t)
			s, fb, _, open := gated(t, Config{MaxBatch: tc.maxBatch, FlushWorkers: 1})
			replies := []chan reply{submit(t, s, tc.head)}
			waitFor(t, "the head entry to reach the backend", func() bool { return fb.calls.Load() == 1 })
			replies = append(replies, submit(t, s, tc.held))
			waitFor(t, "the collector to take the held entry", func() bool { return s.b.q.Len() == 0 })
			// Long past any batching timer: the held entry must still be
			// waiting for the worker, not flushed alone.
			time.Sleep(10 * time.Millisecond)
			for _, n := range tc.arrivals {
				replies = append(replies, submit(t, s, n))
			}
			waitFor(t, "the arrivals to join the held batch", func() bool { return s.b.q.Len() == tc.queued })
			open()
			for i, ch := range replies {
				if rep := <-ch; rep.err != nil {
					t.Fatalf("entry %d: %v", i, rep.err)
				}
			}
			fb.mu.Lock()
			defer fb.mu.Unlock()
			if fmt.Sprint(fb.sizes) != fmt.Sprint(tc.want) {
				t.Fatalf("backend batch sizes %v, want %v", fb.sizes, tc.want)
			}
		})
	}
}

// TestNoWaitWhenIdle: on an idle server a lone request goes to the
// backend at once — there is no batching timer to wait out.
func TestNoWaitWhenIdle(t *testing.T) {
	testkit.NoLeaks(t)
	s, err := New(&fakeBackend{hidden: 8, categories: 32}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var queued []int64
	fast := 0
	for i := 0; i < 10; i++ {
		var out ClassifyResponse
		if code := post(ts, "/v1/classify", "", ClassifyRequest{H: make([]float32, 8), TopK: 1}, &out); code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
		if out.BatchSize != 1 {
			t.Fatalf("request %d: batch_size = %d, want 1", i, out.BatchSize)
		}
		queued = append(queued, out.QueueUs)
		if out.QueueUs < 1000 {
			fast++
		}
	}
	if fast < 9 {
		t.Fatalf("queue_us %v: %d of 10 lone requests waited under 1 ms, want >= 9", queued, fast)
	}
}

// TestDrainWhileBatchHeld: Drain while the collector holds a batch for
// the busy worker. With MaxBatch 32 the held batch is still open, so
// the closed queue is what ends its gathering; with MaxBatch 4 it is
// full and more entries wait behind it. Either way every admitted
// entry is answered exactly once.
func TestDrainWhileBatchHeld(t *testing.T) {
	for _, tc := range []struct {
		maxBatch int
		queued   int // items still queued behind the held batch
	}{{32, 0}, {4, 8}} {
		t.Run(fmt.Sprintf("max-batch-%d", tc.maxBatch), func(t *testing.T) {
			testkit.NoLeaks(t)
			s, fb, _, open := gated(t, Config{MaxBatch: tc.maxBatch, FlushWorkers: 1})
			replies := []chan reply{submit(t, s, 1)}
			waitFor(t, "the head entry to reach the backend", func() bool { return fb.calls.Load() == 1 })
			for i := 0; i < 8; i++ { // 12 items: 1, 2, 1, 2, ...
				replies = append(replies, submit(t, s, 1+i%2))
			}
			waitFor(t, "the collector to hold a batch", func() bool { return s.b.q.Len() == tc.queued })
			drained := make(chan struct{})
			go func() { s.Drain(); close(drained) }()
			waitFor(t, "the queue to close", s.b.q.Closed)
			time.Sleep(5 * time.Millisecond) // let the collector see the closed queue
			open()
			select {
			case <-drained:
			case <-time.After(5 * time.Second):
				t.Fatal("Drain did not return")
			}
			for i, ch := range replies {
				if len(ch) != 1 {
					t.Fatalf("entry %d answered %d times, want once", i, len(ch))
				}
				if rep := <-ch; rep.err != nil {
					t.Fatalf("entry %d: %v", i, rep.err)
				}
			}
			if err := s.b.enqueue(&request{ctx: context.Background(), hs: batchOf(1, 8).Batch, resp: make(chan reply, 1), class: tenant.Standard}); err != ErrDraining {
				t.Fatalf("enqueue after Drain: %v, want ErrDraining", err)
			}
		})
	}
}

// TestSaturation429: past the bounded queue the server must answer
// 429 with Retry-After — never hang or queue unboundedly — and the
// admitted requests must still complete once capacity frees up.
func TestSaturation429(t *testing.T) {
	testkit.NoLeaks(t)
	fb := &fakeBackend{hidden: 8, categories: 32, gate: make(chan struct{})}
	s, err := New(fb, Config{MaxBatch: 1, QueueCap: 2, FlushWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 12
	baseShed := mRequests[telemetry.Shed].Value()
	codes := make([]int, n)
	retryAfter := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := postClassify(ts, classifyBody(t, 8))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}

	// Wait until rejections are observable, then open the gate so the
	// admitted requests complete.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if mRequests[telemetry.Shed].Value() > baseShed {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(fb.gate)
	wg.Wait()
	s.Drain()

	var ok, too int
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			too++
			if retryAfter[i] != "1" {
				t.Fatalf("429 Retry-After %q, want 1", retryAfter[i])
			}
		default:
			t.Fatalf("request %d: status %d", i, c)
		}
	}
	if too == 0 {
		t.Fatalf("no 429 under saturation (ok=%d)", ok)
	}
	if ok == 0 {
		t.Fatalf("admitted requests did not complete")
	}
	if ok+too != n {
		t.Fatalf("ok=%d too=%d of %d", ok, too, n)
	}
}

// TestReadinessDuringDrain: Drain must fail /readyz first (while
// /healthz stays live), reject new work with 503, and complete every
// already-admitted request.
func TestReadinessDuringDrain(t *testing.T) {
	testkit.NoLeaks(t)
	fb := &fakeBackend{hidden: 8, categories: 32, gate: make(chan struct{})}
	s, err := New(fb, Config{MaxBatch: 1, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if get("/readyz") != http.StatusOK {
		t.Fatal("not ready before drain")
	}

	// Park one request inside the backend.
	inflight := make(chan int, 1)
	go func() {
		resp, err := postClassify(ts, classifyBody(t, 8))
		if err != nil {
			inflight <- -1
			return
		}
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	for fb.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	// Readiness flips while the in-flight request is still running.
	deadline := time.Now().Add(10 * time.Second)
	for get("/readyz") != http.StatusServiceUnavailable {
		if !time.Now().Before(deadline) {
			t.Fatal("readyz never flipped during drain")
		}
		time.Sleep(time.Millisecond)
	}
	if get("/healthz") != http.StatusOK {
		t.Fatal("healthz failed during drain")
	}
	// New work is refused with 503 + Retry-After.
	resp, err := postClassify(ts, classifyBody(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("503 Retry-After %q, want 1", ra)
	}

	select {
	case <-drained:
		t.Fatal("drain finished with a request still gated")
	default:
	}
	close(fb.gate)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not finish")
	}
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request failed during drain: %d", code)
	}
}

// TestDrainZeroFailures: every request admitted before drain begins
// must be answered 200; concurrent arrivals may only see 200, 429 or
// 503 — never a hang or another failure.
func TestDrainZeroFailures(t *testing.T) {
	testkit.NoLeaks(t)
	fb := &fakeBackend{hidden: 8, categories: 32}
	s, err := New(fb, Config{MaxBatch: 8, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 50
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := postClassify(ts, classifyBody(t, 8))
			if err != nil {
				codes[i] = -1
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	time.Sleep(2 * time.Millisecond)
	s.Drain()
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK && c != http.StatusTooManyRequests && c != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d", i, c)
		}
	}
}

// TestDegradationPolicy exercises the class-aware ladder directly:
// a class's own backlog shrinks only its own budget (full budget
// below the watermark, linear shrink above it, never below the
// floor), and a backlogged higher class floors every class below it
// while leaving classes above untouched.
func TestDegradationPolicy(t *testing.T) {
	cfg := Config{TopM: 16, MFloor: 2, QueueCap: 100, Watermark: 0.5}
	cfg.defaults(256)

	ix := tenant.Interactive.Index()
	bx := tenant.Batch.Index()

	// Rule 1: own-queue pressure, other classes idle.
	own := []struct {
		depth    int
		want     int
		degraded bool
	}{
		{0, 16, false},
		{50, 16, false},   // at the watermark: full budget
		{75, 9, true},     // halfway into the band
		{100, 2, true},    // full queue: floor
		{10_000, 2, true}, // beyond capacity still clamps to the floor
	}
	for _, c := range own {
		for _, class := range tenant.Classes {
			var depths [tenant.NumClasses]int
			depths[class.Index()] = c.depth
			m, degraded := effectiveMPolicy(cfg, depths, cfg.QueueCap, class)
			if m != c.want || degraded != c.degraded {
				t.Fatalf("class %s depth %d: m=%d degraded=%v, want m=%d degraded=%v",
					class, c.depth, m, degraded, c.want, c.degraded)
			}
			if m < cfg.MFloor {
				t.Fatalf("depth %d: budget %d under floor %d", c.depth, m, cfg.MFloor)
			}
		}
	}

	// Rule 2: an interactive backlog floors batch immediately but
	// leaves interactive's own budget governed by its own queue.
	var depths [tenant.NumClasses]int
	depths[ix] = 60 // past the watermark
	if m, degraded := effectiveMPolicy(cfg, depths, cfg.QueueCap, tenant.Batch); m != 2 || !degraded {
		t.Fatalf("batch under interactive pressure: m=%d degraded=%v, want floor 2", m, degraded)
	}
	if m, _ := effectiveMPolicy(cfg, depths, cfg.QueueCap, tenant.Interactive); m != 14 {
		t.Fatalf("interactive at depth 60: m=%d, want 14 (own linear shrink)", m)
	}

	// The asymmetric case that motivates the ladder: a batch flood
	// must not touch interactive quality at all.
	depths = [tenant.NumClasses]int{}
	depths[bx] = 100
	if m, degraded := effectiveMPolicy(cfg, depths, cfg.QueueCap, tenant.Interactive); m != 16 || degraded {
		t.Fatalf("interactive under batch flood: m=%d degraded=%v, want full budget", m, degraded)
	}
	if m, _ := effectiveMPolicy(cfg, depths, cfg.QueueCap, tenant.Batch); m != 2 {
		t.Fatalf("batch flood's own budget: m=%d, want floor 2", m)
	}
}

// TestShedPolicy: lower classes are shed at admission once a
// strictly-higher class's queue passes ShedFrac of capacity; the
// backlogged class itself is never shed by the rule.
func TestShedPolicy(t *testing.T) {
	cfg := Config{QueueCap: 100, ShedFrac: 0.75}
	cfg.defaults(64)
	// A bare batcher (no collector) so pushed depths stay put.
	b := &batcher{cfg: cfg, q: tenant.NewWFQ[*request](cfg.QueueCap, tenant.DefaultWeights)}

	if b.shouldShed(tenant.Batch) || b.shouldShed(tenant.Interactive) {
		t.Fatal("shed with empty queues")
	}
	// Simulate an interactive backlog past the shed threshold.
	for i := 0; i < 80; i++ {
		if err := b.q.Push(tenant.Interactive, &request{class: tenant.Interactive}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if !b.shouldShed(tenant.Batch) || !b.shouldShed(tenant.Standard) {
		t.Fatal("lower classes not shed under interactive backlog")
	}
	if b.shouldShed(tenant.Interactive) {
		t.Fatal("the backlogged class shed itself")
	}
}

// TestClassifyDeadline: a request whose context expires while queued
// or gated must get 504, not hang.
func TestClassifyDeadline(t *testing.T) {
	fb := &fakeBackend{hidden: 8, categories: 32, gate: make(chan struct{})}
	s, err := New(fb, Config{MaxBatch: 1, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(fb.gate); s.Drain() }()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(classifyBody(t, 8))).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(rec, req)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler hung past its deadline")
	}
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", rec.Code)
	}
}

// TestClassifyCanceled: a client that hangs up while its request is
// gated gets 499, counted caller_cancelled — not fault — and no error
// in the SLO window.
func TestClassifyCanceled(t *testing.T) {
	fb := &fakeBackend{hidden: 8, categories: 32, gate: make(chan struct{})}
	s, err := New(fb, Config{MaxBatch: 1, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(fb.gate); s.Drain() }()

	faults, cancels := mRequests[telemetry.Fault].Value(), mRequests[telemetry.CallerCancelled].Value()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(classifyBody(t, 8))).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != telemetry.StatusClientClosed {
		t.Fatalf("status = %d, want 499", rec.Code)
	}
	if df, dc := mRequests[telemetry.Fault].Value()-faults, mRequests[telemetry.CallerCancelled].Value()-cancels; df != 0 || dc != 1 {
		t.Errorf("requests{outcome=fault} +%d, {outcome=caller_cancelled} +%d, want +0 and +1", df, dc)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/slo", nil))
	var sum telemetry.SLOSummary
	if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	for _, ep := range sum.Endpoints {
		if ep.Errors != 0 {
			t.Errorf("SLO endpoint %s: %d errors, want 0", ep.Endpoint, ep.Errors)
		}
	}
}

// TestBatchEndpointDeadline: both classify endpoints thread the
// client's context into the backend call, so an expired deadline
// answers 504 and aborts the backend call on its context — before the
// gate opens, not after.
func TestBatchEndpointDeadline(t *testing.T) {
	for path, v := range map[string]any{
		"/v1/classify":       ClassifyRequest{H: []float32{1, 2, 3, 4}, TopK: 1},
		"/v1/classify_batch": ClassifyBatchRequest{Batch: [][]float32{{1, 2, 3, 4}}, TopK: 1},
	} {
		t.Run(path, func(t *testing.T) {
			fb := &fakeBackend{hidden: 4, categories: 32, gate: make(chan struct{})}
			s, err := New(fb, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { close(fb.gate); s.Drain() }()

			body, _ := json.Marshal(v)
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
			rec := httptest.NewRecorder()
			done := make(chan struct{})
			go func() {
				s.Handler().ServeHTTP(rec, req)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("handler hung past its deadline")
			}
			if rec.Code != http.StatusGatewayTimeout {
				t.Fatalf("status = %d, want 504", rec.Code)
			}
			if fb.calls.Load() != 1 {
				t.Fatalf("%d backend calls, want 1 (the deadline must expire inside the backend)", fb.calls.Load())
			}
			for deadline := time.Now().Add(5 * time.Second); fb.ctxReturns.Load() == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the backend call is still waiting on the gate after the client's deadline")
				}
			}
		})
	}
}

// TestValidation covers the 4xx surface: wrong dimension, bad JSON,
// wrong method, oversized and empty batches.
func TestValidation(t *testing.T) {
	testkit.NoLeaks(t)
	fb := &fakeBackend{hidden: 8, categories: 32}
	s, err := New(fb, Config{QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path string, v interface{}) int {
		buf, _ := json.Marshal(v)
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if c := post("/v1/classify", ClassifyRequest{H: make([]float32, 3)}); c != http.StatusBadRequest {
		t.Fatalf("wrong dim: %d", c)
	}
	if c := post("/v1/classify_batch", ClassifyBatchRequest{}); c != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", c)
	}
	big := ClassifyBatchRequest{Batch: make([][]float32, 5)}
	for i := range big.Batch {
		big.Batch[i] = make([]float32, 8)
	}
	if c := post("/v1/classify_batch", big); c != http.StatusBadRequest {
		t.Fatalf("oversized batch: %d", c)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET classify: %d", resp.StatusCode)
	}
}

// TestEndToEndLocalBackend runs the full stack — HTTP, batcher,
// Local backend, core worker pool — over a real trained screener and
// checks the served prediction matches direct classification.
func TestEndToEndLocalBackend(t *testing.T) {
	testkit.NoLeaks(t)
	inst := workload.Generate(
		workload.Spec{Name: "serve-test", Categories: 96, Hidden: 32, LatentRank: 8, ZipfS: 1},
		workload.GenOptions{Seed: 11, Train: 128, Valid: 8, Test: 8})
	scr, _, err := core.TrainScreener(inst.Classifier, inst.Train, core.Config{
		Categories: 96, Hidden: 32, Reduced: 8, Precision: quant.INT4, Seed: 3,
	}, core.TrainOptions{Epochs: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	backend, err := NewLocal(inst.Classifier, scr)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(backend, Config{TopM: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	h := inst.Test[0]
	want := core.ClassifyApprox(inst.Classifier, scr, h, core.TopM(8)).Predict()

	buf, _ := json.Marshal(ClassifyRequest{H: h, TopK: 5})
	resp, err := postClassify(ts, buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Class != want {
		t.Fatalf("served class %d != direct %d", out.Class, want)
	}
	if len(out.TopK) != 5 {
		t.Fatalf("topk = %d", len(out.TopK))
	}
	if out.M != 8 || out.Degraded {
		t.Fatalf("m=%d degraded=%v at idle", out.M, out.Degraded)
	}

	// The batch endpoint serves the same answers.
	bbuf, _ := json.Marshal(ClassifyBatchRequest{Batch: inst.Test[:4], TopK: 3})
	bresp, err := ts.Client().Post(ts.URL+"/v1/classify_batch", "application/json", bytes.NewReader(bbuf))
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", bresp.StatusCode)
	}
	var bout ClassifyBatchResponse
	if err := json.NewDecoder(bresp.Body).Decode(&bout); err != nil {
		t.Fatal(err)
	}
	if len(bout.Results) != 4 {
		t.Fatalf("batch results = %d", len(bout.Results))
	}
	for i, r := range bout.Results {
		direct := core.ClassifyApprox(inst.Classifier, scr, inst.Test[i], core.TopM(8)).Predict()
		if r.Class != direct {
			t.Fatalf("batch item %d: served %d != direct %d", i, r.Class, direct)
		}
	}
}

// echoTopK answers every item with as many candidates as it was
// asked for, so a response shows the top_k the server passed down.
type echoTopK struct{ categories int }

func (e echoTopK) Hidden() int     { return 8 }
func (e echoTopK) Categories() int { return e.categories }
func (e echoTopK) ClassifyBatch(_ context.Context, batch [][]float32, _, topK int) ([]Outcome, error) {
	out := make([]Outcome, len(batch))
	for i := range out {
		out[i].TopK = make([]Candidate, topK)
	}
	return out, nil
}

// TestTopKClamp: a top_k past the cap answers maxTopK (64) candidates
// on both classify endpoints, and l candidates when l < 64.
func TestTopKClamp(t *testing.T) {
	testkit.NoLeaks(t)
	for _, tc := range []struct{ categories, want int }{{1000, 64}, {32, 32}} {
		s, err := New(echoTopK{tc.categories}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		var one ClassifyResponse
		if code := post(ts, "/v1/classify", "", ClassifyRequest{H: make([]float32, 8), TopK: 1000}, &one); code != http.StatusOK {
			t.Fatalf("l=%d classify: status %d", tc.categories, code)
		}
		if len(one.TopK) != tc.want {
			t.Fatalf("l=%d classify: %d candidates, want %d", tc.categories, len(one.TopK), tc.want)
		}
		var batch ClassifyBatchResponse
		req := ClassifyBatchRequest{Batch: [][]float32{make([]float32, 8), make([]float32, 8), make([]float32, 8)}, TopK: 1000}
		if code := post(ts, "/v1/classify_batch", "", req, &batch); code != http.StatusOK {
			t.Fatalf("l=%d classify_batch: status %d", tc.categories, code)
		}
		if len(batch.Results) != 3 {
			t.Fatalf("l=%d classify_batch: %d results", tc.categories, len(batch.Results))
		}
		for i, r := range batch.Results {
			if len(r.TopK) != tc.want {
				t.Fatalf("l=%d classify_batch item %d: %d candidates, want %d", tc.categories, i, len(r.TopK), tc.want)
			}
		}
		ts.Close()
		s.Drain()
	}
}

// TestLocalClassIsArgMaxAtEveryTopK: Local takes the class from the
// head of its top-k ranking when it has one and sweeps for the argmax
// only when it has none (top_k 0) or the ranking met a NaN — the served
// class must be Result.Predict() every time.
func TestLocalClassIsArgMaxAtEveryTopK(t *testing.T) {
	inst := workload.Generate(
		workload.Spec{Name: "class-test", Categories: 96, Hidden: 32, LatentRank: 8, ZipfS: 1},
		workload.GenOptions{Seed: 13, Train: 128, Valid: 8, Test: 8})
	scr, _, err := core.TrainScreener(inst.Classifier, inst.Train, core.Config{
		Categories: 96, Hidden: 32, Reduced: 8, Precision: quant.INT4, Seed: 3,
	}, core.TrainOptions{Epochs: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	backend, err := NewLocal(inst.Classifier, scr)
	if err != nil {
		t.Fatal(err)
	}
	// A hidden vector with a NaN makes every exact logit NaN while the
	// screened ones stay finite; at m = l the whole mixed vector is
	// NaN, where ArgMax answers 0 and a ranking of two or more does not.
	poisoned := append([]float32(nil), inst.Test[0]...)
	poisoned[3] = float32(math.NaN())
	batch := append([][]float32{poisoned}, inst.Test...)
	for _, m := range []int{8, 96} {
		for _, topK := range []int{0, 1, 3, 96, 200} {
			outs, err := backend.ClassifyBatch(context.Background(), batch, m, topK)
			if err != nil {
				t.Fatal(err)
			}
			for i, h := range batch {
				if want := core.ClassifyApprox(inst.Classifier, scr, h, core.TopM(m)).Predict(); outs[i].Class != want {
					t.Fatalf("m=%d top_k=%d item %d: class %d, Predict %d", m, topK, i, outs[i].Class, want)
				}
			}
		}
	}
}

// nopBackend answers every item with one preallocated outcome, so an
// allocation count over a flush is the batcher's own.
type nopBackend struct{ outs []Outcome }

func (nopBackend) Hidden() int     { return 8 }
func (nopBackend) Categories() int { return 32 }
func (n nopBackend) ClassifyBatch(_ context.Context, batch [][]float32, _, _ int) ([]Outcome, error) {
	return n.outs[:len(batch)], nil
}

// TestFlushAllocs pins the fixed cost of a flush, which a lone request
// pays in full: a one-item, unpinned flush allocates only the flush
// context and its watchers.
func TestFlushAllocs(t *testing.T) {
	b := &batcher{cfg: Config{MaxBatch: 32, TopM: 1, MFloor: 1, QueueCap: 8, Watermark: 0.5},
		backend: nopBackend{outs: make([]Outcome, 1)}, q: tenant.NewWFQ[*request](8, tenant.DefaultWeights)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &request{ctx: ctx, hs: batchOf(1, 8).Batch, topK: 1, resp: make(chan reply, 1), class: tenant.Standard}
	batch := []*request{r}
	allocs := testing.AllocsPerRun(200, func() {
		b.doFlush(batch)
		<-r.resp
	})
	// All 8 are flushContext's: the cancellable context and its
	// requester watchers. Copying the request list, partitioning it by
	// pinned version or gathering a lone entry's vectors would add more.
	if allocs > 8 {
		t.Fatalf("%v allocs per 1-item flush, want <= 8", allocs)
	}
}
