package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"enmc/internal/distributed"
	"enmc/internal/server"
	"enmc/internal/telemetry"
	"enmc/internal/testkit"
)

// faultQuery serves the fixture from 3 shards × 2 replicas, injects
// fault f into every screen RPC to replica 0 of shard 1, and runs one
// query through a router on that transport. Replica 0 is first in the
// first query's failover order, so the fault is met exactly once: the
// query must cost at most one failover, stay complete, and answer
// exactly what distributed.Classify does.
func faultQuery(t *testing.T, f testkit.Fault, setup func(*testkit.FaultTransport)) {
	t.Helper()
	inst, shards := fixture(t)
	urls, _ := startWorkers(t, shards, 2, nil)
	bad, err := url.Parse(urls[1][0])
	if err != nil {
		t.Fatal(err)
	}
	base := &http.Transport{MaxIdleConnsPerHost: 8}
	ft := testkit.NewFaultTransport(int64(f)+1, base)
	ft.Match = func(req *http.Request) bool {
		return req.URL.Host == bad.Host && req.URL.Path == "/v1/shard/screen"
	}
	ft.Rate, ft.Faults = 1, []testkit.Fault{f}
	if setup != nil {
		setup(ft)
	}
	// Router.Close reaches base's idle connections through ft.
	r := dialT(t, RouterConfig{ShardMap: urls, Client: &http.Client{Transport: ft}, Timeout: 300 * time.Millisecond})

	batch := inst.Test[:3]
	const m, topK = 24, 5
	failBefore := mFailoverTotal.Value()
	outs, p, err := r.ClassifyBatchPartial(context.Background(), batch, m, topK)
	if err != nil {
		t.Fatal(err)
	}
	if n := ft.Injected(f); n != 1 {
		t.Fatalf("%v injected %d times, want 1", f, n)
	}
	if d := mFailoverTotal.Value() - failBefore; d > 1 {
		t.Fatalf("failover_total delta %d, want ≤ 1", d)
	}
	if p.Partial {
		t.Fatalf("one faulty replica degraded to partial: %+v", p)
	}
	per := (m + fixShards - 1) / fixShards
	for i, h := range batch {
		want, err := distributed.Classify(shards, h, per, topK)
		if err != nil {
			t.Fatal(err)
		}
		assertOutcome(t, i, outs[i], want)
	}
}

// TestRouterStalledReplica: a replica that accepts the request and
// never answers costs one per-attempt timeout and one failover.
func TestRouterStalledReplica(t *testing.T) {
	testkit.NoLeaks(t)
	faultQuery(t, testkit.FaultStall, nil)
}

// TestRouterFrameCutMidCandidate: a reply cut inside its last
// candidate, delivered as a complete response, is caught by the
// frame's own length and fails over instead of merging a short item.
func TestRouterFrameCutMidCandidate(t *testing.T) {
	testkit.NoLeaks(t)
	faultQuery(t, testkit.FaultCut, func(ft *testkit.FaultTransport) {
		// An untraced reply ends with its last (class, logit) pair and
		// a 4-byte zero span count: keep one byte of the last logit.
		ft.Cut = func(n int) int { return n - 4 - 3 }
	})
}

// TestRouterResetAfterHeaders: a connection reset after a 200's
// headers is a failed attempt, not an empty reply.
func TestRouterResetAfterHeaders(t *testing.T) {
	testkit.NoLeaks(t)
	faultQuery(t, testkit.FaultReset, nil)
}

// serverOutcomes reads server.http.requests{outcome=…}.
func serverOutcomes() (n [telemetry.NumOutcomes]int64) {
	for o := range n {
		n[o] = telemetry.Default().Counter(telemetry.LabeledName("server.http.requests",
			map[string]string{"outcome": telemetry.Outcome(o).String()})).Value()
	}
	return n
}

// TestFaultOutcomes is one table of shard-leg failures under a serving
// front end: 3 shards × 2 replicas, each fault met by replica 0 of
// shard 1 (first in the first query's failover order), one
// /v1/classify through server.New over the router. Each row says what
// the request's outcome is, how many shard RPC errors it costs, and how
// many errors the workers' SLO windows record — and every other
// outcome counter must stay put. A caller's hang-up is no shard
// failure and no worker error; a per-attempt timeout, a worker's 500, a
// reset and a cut frame each cost one RPC error and fail over to a
// full answer; only the 500 is an error in the worker's window.
func TestFaultOutcomes(t *testing.T) {
	testkit.NoLeaks(t)
	inst, shards := fixture(t)
	const none = telemetry.NumOutcomes
	for _, c := range []struct {
		name    string
		fault   testkit.Fault // into replica 0 of shard 1's screen RPCs
		inject  bool
		screen  func(w *Worker) http.HandlerFunc // replaces that replica's screen handler inside the worker middleware
		cancel  bool                             // the caller hangs up 50 ms in
		timeout time.Duration                    // per attempt
		status  int
		want    telemetry.Outcome
		// rpcErrors and workerErrors are the deltas of
		// cluster.shard_rpc_errors and the workers' SLO errors; worker
		// is the outcome replica 0 of shard 1 records (none: the
		// request never reached it).
		rpcErrors, workerErrors int64
		worker                  telemetry.Outcome
	}{
		{name: "cancel mid-scatter", cancel: true, timeout: 10 * time.Second,
			screen: func(w *Worker) http.HandlerFunc {
				return func(rw http.ResponseWriter, req *http.Request) {
					body, _ := io.ReadAll(req.Body)
					<-req.Context().Done() // the router hung up on this leg
					req.Body = io.NopCloser(bytes.NewReader(body))
					w.handleScreen(rw, req)
				}
			},
			status: telemetry.StatusClientClosed, want: telemetry.CallerCancelled, worker: telemetry.CallerCancelled},
		{name: "stall", inject: true, fault: testkit.FaultStall, timeout: 300 * time.Millisecond,
			status: http.StatusOK, want: telemetry.OK, rpcErrors: 1, worker: none},
		{name: "worker 500", timeout: 300 * time.Millisecond,
			screen: func(*Worker) http.HandlerFunc {
				return func(rw http.ResponseWriter, req *http.Request) {
					_, _ = io.Copy(io.Discard, req.Body)
					writeError(rw, http.StatusInternalServerError, "injected")
				}
			},
			status: http.StatusOK, want: telemetry.OK, rpcErrors: 1, workerErrors: 1, worker: telemetry.Fault},
		{name: "reset", inject: true, fault: testkit.FaultReset, timeout: 300 * time.Millisecond,
			status: http.StatusOK, want: telemetry.OK, rpcErrors: 1, worker: telemetry.OK},
		{name: "cut", inject: true, fault: testkit.FaultCut, timeout: 300 * time.Millisecond,
			status: http.StatusOK, want: telemetry.OK, rpcErrors: 1, worker: telemetry.OK},
	} {
		t.Run(c.name, func(t *testing.T) {
			urls := make([][]string, len(shards))
			workers := make([]*Worker, len(shards))
			for i, sh := range shards {
				w, err := NewWorker(sh)
				if err != nil {
					t.Fatal(err)
				}
				workers[i] = w
				for rep := 0; rep < 2; rep++ {
					h := w.Handler()
					if i == 1 && rep == 0 && c.screen != nil {
						mux := http.NewServeMux()
						mux.Handle("/", w.mux)
						mux.HandleFunc("/v1/shard/screen", c.screen(w))
						h = w.instrument(mux)
					}
					srv := httptest.NewServer(h)
					t.Cleanup(srv.Close)
					urls[i] = append(urls[i], srv.URL)
				}
			}
			bad, err := url.Parse(urls[1][0])
			if err != nil {
				t.Fatal(err)
			}
			ft := testkit.NewFaultTransport(1, &http.Transport{MaxIdleConnsPerHost: 8})
			if c.inject {
				ft.Match = func(req *http.Request) bool {
					return req.URL.Host == bad.Host && req.URL.Path == "/v1/shard/screen"
				}
				ft.Rate, ft.Faults = 1, []testkit.Fault{c.fault}
				ft.Cut = func(n int) int { return n - 4 - 3 } // inside the last logit
			}
			r := dialT(t, RouterConfig{ShardMap: urls, Client: &http.Client{Transport: ft}, Timeout: c.timeout})
			s, err := server.New(r, server.Config{})
			if err != nil {
				t.Fatal(err)
			}
			workerErrors := func() (n int64) {
				for _, w := range workers {
					for _, ep := range w.slo.Summary().Endpoints {
						n += ep.Errors
					}
				}
				return n
			}
			var wBefore int64
			workerMoved := func() bool { return c.worker == none || mWorkerRequests[c.worker].Value() > wBefore }
			if c.worker != none {
				wBefore = mWorkerRequests[c.worker].Value()
			}
			rpcBefore, outBefore, werrBefore := mShardRPCErrors.Value(), serverOutcomes(), workerErrors()

			body, _ := json.Marshal(server.ClassifyRequest{H: inst.Test[0], TopK: 3})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.cancel {
				time.AfterFunc(50*time.Millisecond, cancel)
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body)).WithContext(ctx))
			s.Drain() // the flush, and with it every shard leg, has ended
			if rec.Code != c.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, c.status, rec.Body)
			}
			// The worker observes after it has answered: wait for it.
			deadline := time.Now().Add(2 * time.Second)
			for (workerErrors()-werrBefore != c.workerErrors || !workerMoved()) && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if d := mShardRPCErrors.Value() - rpcBefore; d != c.rpcErrors {
				t.Errorf("shard_rpc_errors +%d, want +%d", d, c.rpcErrors)
			}
			if d := workerErrors() - werrBefore; d != c.workerErrors {
				t.Errorf("worker SLO errors +%d, want +%d", d, c.workerErrors)
			}
			if !workerMoved() {
				t.Errorf("cluster.worker.requests{outcome=%s} did not move", c.worker)
			}
			if n := ft.Injected(c.fault); c.inject && n != 1 {
				t.Errorf("%v injected %d times, want 1", c.fault, n)
			}
			outAfter := serverOutcomes()
			for o := range outAfter {
				want := int64(0)
				if telemetry.Outcome(o) == c.want {
					want = 1
				}
				if d := outAfter[o] - outBefore[o]; d != want {
					t.Errorf("server.http.requests{outcome=%s} +%d, want +%d", telemetry.Outcome(o), d, want)
				}
			}
		})
	}
}
