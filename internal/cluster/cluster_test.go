package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enmc/internal/core"
	"enmc/internal/distributed"
	"enmc/internal/quant"
	"enmc/internal/server"
	"enmc/internal/telemetry"
	"enmc/internal/testkit"
	"enmc/internal/workload"
)

// --- shared fixture: one global model split into 3 shards ---

const (
	fixShards  = 3
	fixClasses = 90 // divisible by fixShards: every shard gets 30 rows
	fixHidden  = 32
)

var (
	fixOnce sync.Once
	fix     struct {
		inst   *workload.Instance
		shards []distributed.Shard
	}
)

// fixture is one trained model and its row shards, built once.
func fixture(t testing.TB) (*workload.Instance, []distributed.Shard) {
	t.Helper()
	fixOnce.Do(func() {
		spec := workload.Spec{Name: "cluster", Categories: fixClasses, Hidden: fixHidden, LatentRank: 8, ZipfS: 1}
		fix.inst = workload.Generate(spec, workload.GenOptions{Seed: 11, Train: 96, Valid: 8, Test: 8})
		cfg := core.Config{Categories: fixClasses, Hidden: fixHidden, Reduced: 8, Precision: quant.INT4, Seed: 5}
		scr, _, err := core.TrainScreener(fix.inst.Classifier, fix.inst.Train, cfg, core.TrainOptions{Epochs: 3, Seed: 6})
		if err != nil {
			panic(err)
		}
		shards, err := distributed.ShardClassifier(fix.inst.Classifier, scr, fixShards)
		if err != nil {
			panic(err)
		}
		for i := range shards {
			shards[i].Version = "vtest"
		}
		fix.shards = shards
	})
	return fix.inst, fix.shards
}

// startWorkers serves each shard from `replicas` httptest servers
// (replicas of one shard share the worker, like processes loading the
// same artifact) and returns the shard map plus the servers indexed
// [shard][replica]. wrap, when non-nil, wraps every replica handler.
func startWorkers(t *testing.T, shards []distributed.Shard, replicas int, wrap func(shard, rep int, h http.Handler) http.Handler) ([][]string, [][]*httptest.Server) {
	t.Helper()
	urls := make([][]string, len(shards))
	srvs := make([][]*httptest.Server, len(shards))
	for i, sh := range shards {
		w, err := NewWorker(sh)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < replicas; rep++ {
			h := http.Handler(w.Handler())
			if wrap != nil {
				h = wrap(i, rep, h)
			}
			srv := httptest.NewServer(h)
			t.Cleanup(srv.Close)
			urls[i] = append(urls[i], srv.URL)
			srvs[i] = append(srvs[i], srv)
		}
	}
	return urls, srvs
}

func dialT(t *testing.T, cfg RouterConfig) *Router {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = -1 // probes off unless a test wants them
	}
	r, err := Dial(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// assertOutcome checks a router outcome against the expected ranked
// candidates, bit-for-bit.
func assertOutcome(t *testing.T, item int, got server.Outcome, want []distributed.Candidate) {
	t.Helper()
	if len(got.TopK) != len(want) {
		t.Fatalf("item %d: top-k length %d, want %d (%+v vs %+v)", item, len(got.TopK), len(want), got.TopK, want)
	}
	for i := range want {
		if got.TopK[i].Class != want[i].Class || got.TopK[i].Logit != want[i].Logit {
			t.Fatalf("item %d: top-k[%d] = (%d, %v), want (%d, %v)",
				item, i, got.TopK[i].Class, got.TopK[i].Logit, want[i].Class, want[i].Logit)
		}
	}
	if len(want) > 0 && got.Class != want[0].Class {
		t.Fatalf("item %d: class %d, want %d", item, got.Class, want[0].Class)
	}
}

// screenFrame encodes a v2 request frame or fails the test.
func screenFrame(t testing.TB, m int, batch [][]float32) []byte {
	t.Helper()
	frame, err := AppendScreenRequest(nil, m, batch)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// decodeReply decodes a v2 response frame into a scratch of its own,
// so the returned views stay valid for the rest of the test.
func decodeReply(t testing.TB, frame []byte) *ScreenResponse {
	t.Helper()
	sr, err := DecodeScreenResponse(frame, new(WireScratch))
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

// stall never answers a screen request: it drains the body (so the
// server's background read can detect the client hanging up) and
// blocks until the router abandons the attempt or the test tears
// down. The drain matters — with the body unread, net/http does not
// watch the connection, and req.Context() would never fire.
func stall(req *http.Request, stop <-chan struct{}) {
	_, _ = io.Copy(io.Discard, req.Body)
	select {
	case <-req.Context().Done():
	case <-stop:
	}
}

// --- wire / parsing ---

func TestParseShardMap(t *testing.T) {
	sm, err := ParseShardMap("10.0.0.1:9001, 10.0.0.2:9001 ; https://x.example/ ;")
	if err != nil {
		t.Fatal(err)
	}
	if len(sm) != 2 || len(sm[0]) != 2 || len(sm[1]) != 1 {
		t.Fatalf("shape = %v", sm)
	}
	if sm[0][0] != "http://10.0.0.1:9001" || sm[0][1] != "http://10.0.0.2:9001" {
		t.Fatalf("shard 0 = %v", sm[0])
	}
	if sm[1][0] != "https://x.example" {
		t.Fatalf("shard 1 = %v", sm[1])
	}
	if _, err := ParseShardMap(" ; "); err == nil {
		t.Fatal("empty spec accepted")
	}
}

// --- worker endpoint behavior ---

func TestWorkerEndpoints(t *testing.T) {
	testkit.NoLeaks(t)
	_, shards := fixture(t)
	w, err := NewWorker(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	get := func(path string) *http.Response {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	info, err := fetchInfo(context.Background(), http.DefaultClient, srv.URL, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Offset != 0 || info.Classes != fixClasses/fixShards || info.Hidden != fixHidden || info.Version != "vtest" {
		t.Fatalf("info = %+v", info)
	}

	if c := get("/healthz").StatusCode; c != http.StatusOK {
		t.Fatalf("healthz = %d", c)
	}
	if c := get("/readyz").StatusCode; c != http.StatusOK {
		t.Fatalf("readyz = %d", c)
	}
	if c := get("/v1/shard/screen").StatusCode; c != http.StatusMethodNotAllowed {
		t.Fatalf("GET screen = %d", c)
	}

	// Drain fails readiness but not liveness.
	w.Drain()
	if c := get("/readyz").StatusCode; c != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d", c)
	}
	if c := get("/healthz").StatusCode; c != http.StatusOK {
		t.Fatalf("healthz while draining = %d", c)
	}
}

// TestWorkerUnknownPathsBounded: distinct unknown /v1/* paths are
// bad_input answers — counted in cluster.worker.requests, absent from
// the worker's SLO window — so a scrape publishes no gauges for them.
func TestWorkerUnknownPathsBounded(t *testing.T) {
	testkit.NoLeaks(t)
	_, shards := fixture(t)
	w, err := NewWorker(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	get := func(path string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	const n = 200
	badIn := mWorkerRequests[telemetry.BadInput].Value()
	get("/v1/shard/nope-0")
	get("/metrics")
	gauges := len(telemetry.Default().Snapshot().Gauges)
	for i := 1; i < n; i++ {
		get(fmt.Sprintf("/v1/shard/nope-%d", i))
	}
	get("/metrics")
	if got := len(telemetry.Default().Snapshot().Gauges); got != gauges {
		t.Errorf("%d unknown paths took the registry from %d to %d gauges", n, gauges, got)
	}
	if eps := w.slo.Summary().Endpoints; len(eps) != 0 {
		t.Errorf("worker SLO endpoints = %+v, want none", eps)
	}
	if d := mWorkerRequests[telemetry.BadInput].Value() - badIn; d != n {
		t.Errorf("cluster.worker.requests{outcome=bad_input} +%d, want +%d", d, n)
	}
}

// --- end-to-end: scatter-gather merge is bit-identical ---

// TestRouterPartialOnShardDown: killing every replica of one shard
// must degrade, not fail — the reply is the correctly-merged top-k of
// the surviving shards, flagged partial with the dead shard listed, and
// a server in front counts the answer partial.
func TestRouterPartialOnShardDown(t *testing.T) {
	testkit.NoLeaks(t)
	inst, shards := fixture(t)
	urls, srvs := startWorkers(t, shards, 2, nil)
	r := dialT(t, RouterConfig{ShardMap: urls, Timeout: 2 * time.Second})

	for _, srv := range srvs[1] { // both replicas of shard 1
		srv.Close()
	}

	ctx := context.Background()
	batch := inst.Test[:3]
	const m, topK = 24, 5
	outs, p, err := r.ClassifyBatchPartial(ctx, batch, m, topK)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Partial || len(p.MissingShards) != 1 || p.MissingShards[0] != 1 {
		t.Fatalf("partial = %+v, want shard 1 missing", p)
	}
	// The surviving merge must equal the in-process scatter over the
	// surviving shards with the SAME per-shard budget (the router
	// still divides m by the full shard count).
	per := (m + fixShards - 1) / fixShards
	surviving := []distributed.Shard{shards[0], shards[2]}
	for i, h := range batch {
		want, err := distributed.Classify(surviving, h, per, topK)
		if err != nil {
			t.Fatal(err)
		}
		assertOutcome(t, i, outs[i], want)
	}

	// ClassifyBatch (plain Backend surface) serves the same degraded
	// answer with the flag dropped.
	if _, err := r.ClassifyBatch(ctx, batch, m, topK); err != nil {
		t.Fatalf("ClassifyBatch on partial cluster: %v", err)
	}

	s, err := server.New(r, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	before := serverOutcomes()
	body, _ := json.Marshal(server.ClassifyRequest{H: batch[0], TopK: topK})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body)))
	after := serverOutcomes()
	if rec.Code != http.StatusOK || after[telemetry.Partial] != before[telemetry.Partial]+1 || after[telemetry.OK] != before[telemetry.OK] {
		t.Fatalf("served partial merge: status %d, requests{outcome=partial} +%d, {outcome=ok} +%d, want 200, +1, +0",
			rec.Code, after[telemetry.Partial]-before[telemetry.Partial], after[telemetry.OK]-before[telemetry.OK])
	}
}

// TestRouterAllShardsDown: when no shard has a reachable replica the
// query errors rather than returning an empty merge.
func TestRouterAllShardsDown(t *testing.T) {
	testkit.NoLeaks(t)
	inst, shards := fixture(t)
	urls, srvs := startWorkers(t, shards, 1, nil)
	r := dialT(t, RouterConfig{ShardMap: urls})
	for _, group := range srvs {
		for _, srv := range group {
			srv.Close()
		}
	}
	_, _, err := r.ClassifyBatchPartial(context.Background(), inst.Test[:1], 12, 3)
	if err == nil {
		t.Fatal("all-shards-down returned no error")
	}
	if !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("err = %v", err)
	}
}

// TestRouterFailover: a dead first replica must fail over to the live
// one within a single query — no probe loop involved.
func TestRouterFailover(t *testing.T) {
	testkit.NoLeaks(t)
	inst, shards := fixture(t)
	urls, srvs := startWorkers(t, shards, 2, nil)
	// Kill replica 0 of every shard; replica order for the first query
	// starts at the round-robin cursor 0, so attempt 1 hits the corpse.
	for _, group := range srvs {
		group[0].Close()
	}
	r := dialT(t, RouterConfig{ShardMap: urls, Timeout: 2 * time.Second})

	failBefore := mFailoverTotal.Value()
	errBefore := mShardRPCErrors.Value()
	outs, p, err := r.ClassifyBatchPartial(context.Background(), inst.Test[:2], 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Partial {
		t.Fatalf("failover degraded to partial: %+v", p)
	}
	per := (24 + fixShards - 1) / fixShards
	for i, h := range inst.Test[:2] {
		want, err := distributed.Classify(shards, h, per, 5)
		if err != nil {
			t.Fatal(err)
		}
		assertOutcome(t, i, outs[i], want)
	}
	if mFailoverTotal.Value() <= failBefore {
		t.Fatal("failover_total did not advance")
	}
	if mShardRPCErrors.Value() <= errBefore {
		t.Fatal("shard_rpc_errors did not advance")
	}
}

// TestRouterRetrySameReplica: a single-replica shard gets a bounded
// same-replica retry (a leg makes at least two attempts), so a
// transient 500 does not degrade the response.
func TestRouterRetrySameReplica(t *testing.T) {
	testkit.NoLeaks(t)
	inst, shards := fixture(t)
	var flaked sync.Map // shard → true once it has already failed one screen
	urls, _ := startWorkers(t, shards, 1, func(shard, _ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/v1/shard/screen" {
				if _, loaded := flaked.LoadOrStore(shard, true); !loaded {
					http.Error(rw, "transient", http.StatusInternalServerError)
					return
				}
			}
			h.ServeHTTP(rw, req)
		})
	})
	r := dialT(t, RouterConfig{ShardMap: urls})

	outs, p, err := r.ClassifyBatchPartial(context.Background(), inst.Test[:1], 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Partial {
		t.Fatalf("retryable failure degraded to partial: %+v", p)
	}
	per := (24 + fixShards - 1) / fixShards
	want, err := distributed.Classify(shards, inst.Test[0], per, 5)
	if err != nil {
		t.Fatal(err)
	}
	assertOutcome(t, 0, outs[0], want)
}

// TestRouterAttemptBudget pins the failover rule: a shard leg tries
// every replica once and makes at least two attempts, so a
// single-replica shard retries its replica once, a three-replica
// shard tries each replica once, and a healthy shard is asked once.
func TestRouterAttemptBudget(t *testing.T) {
	testkit.NoLeaks(t)
	inst, shards := fixture(t)
	var hits [fixShards][3]atomic.Int32
	var failing atomic.Int32 // the shard whose replicas all answer 500
	urls, _ := startWorkers(t, shards, 3, func(shard, rep int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/v1/shard/screen" {
				hits[shard][rep].Add(1)
				if int(failing.Load()) == shard {
					http.Error(rw, "down", http.StatusInternalServerError)
					return
				}
			}
			h.ServeHTTP(rw, req)
		})
	})
	for _, c := range []struct {
		name      string
		failing   int
		replicas  int // of the failing shard; the others serve one
		wantHits  [3]int32
		failovers int64
	}{
		{"one replica", 0, 1, [3]int32{2, 0, 0}, 1},
		{"three replicas", 1, 3, [3]int32{1, 1, 1}, 2},
	} {
		shardMap := make([][]string, fixShards)
		for i := range shardMap {
			shardMap[i] = urls[i][:1]
		}
		shardMap[c.failing] = urls[c.failing][:c.replicas]
		r := dialT(t, RouterConfig{ShardMap: shardMap})
		failing.Store(int32(c.failing))
		for i := range hits {
			for j := range hits[i] {
				hits[i][j].Store(0)
			}
		}
		rpcBefore, failBefore := mShardRPCTotal.Value(), mFailoverTotal.Value()

		_, p, err := r.ClassifyBatchPartial(context.Background(), inst.Test[:1], 24, 5)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(p.MissingShards) != 1 || p.MissingShards[0] != c.failing {
			t.Fatalf("%s: missing shards %v, want [%d]", c.name, p.MissingShards, c.failing)
		}
		for i := range hits {
			want := [3]int32{1, 0, 0}
			if i == c.failing {
				want = c.wantHits
			}
			for j := range hits[i] {
				if got := hits[i][j].Load(); got != want[j] {
					t.Fatalf("%s: shard %d replica %d took %d screen RPCs, want %d", c.name, i, j, got, want[j])
				}
			}
		}
		failovers := mFailoverTotal.Value() - failBefore
		if failovers != c.failovers {
			t.Fatalf("%s: failover_total advanced by %d, want %d", c.name, failovers, c.failovers)
		}
		if first := mShardRPCTotal.Value() - rpcBefore - failovers; first != fixShards {
			t.Fatalf("%s: shard_rpc_total - failover_total = %d, want %d first attempts", c.name, first, fixShards)
		}
	}
}

// TestRouterHealthEjectAndReadmit drives the per-replica probe state
// machine: consecutive readiness failures eject, consecutive
// successes re-admit — and an ejected replica is still reachable as a
// last resort, so a fully-ejected shard keeps serving.
func TestRouterHealthEjectAndReadmit(t *testing.T) {
	testkit.NoLeaks(t)
	inst, shards := fixture(t)
	var down sync.Map // shard index → readiness off
	urls, _ := startWorkers(t, shards, 1, func(shard, _ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/readyz" {
				if _, off := down.Load(shard); off {
					http.Error(rw, "not ready", http.StatusServiceUnavailable)
					return
				}
			}
			h.ServeHTTP(rw, req)
		})
	})
	r := dialT(t, RouterConfig{
		ShardMap:       urls,
		HealthInterval: 100 * time.Millisecond,
	})
	if got := r.HealthyShards(); got != fixShards {
		t.Fatalf("healthy shards at start = %d", got)
	}

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	ejectBefore := mReplicaEjected.Value()
	readmitBefore := mReplicaReadmit.Value()
	down.Store(0, true)
	waitFor("ejection", func() bool { return r.HealthyShards() == fixShards-1 })
	if mReplicaEjected.Value() <= ejectBefore {
		t.Fatal("replica_ejected did not advance")
	}

	// Ejection reorders failover; it must not black-hole the shard —
	// /readyz is down but /v1/shard/screen still answers.
	outs, p, err := r.ClassifyBatchPartial(context.Background(), inst.Test[:1], 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Partial {
		t.Fatalf("ejected-but-alive shard degraded to partial: %+v", p)
	}
	if len(outs[0].TopK) == 0 {
		t.Fatal("empty top-k")
	}

	down.Delete(0)
	waitFor("re-admission", func() bool { return r.HealthyShards() == fixShards })
	if mReplicaReadmit.Value() <= readmitBefore {
		t.Fatal("replica_readmitted did not advance")
	}
}

// TestRouterCancellation: a context cancelled mid-scatter surfaces
// ctx.Err(), not a partial result. (That it counts no shard RPC error
// is TestFaultOutcomes' "cancel mid-scatter" row.)
func TestRouterCancellation(t *testing.T) {
	testkit.NoLeaks(t)
	inst, shards := fixture(t)
	stop := make(chan struct{})
	urls, _ := startWorkers(t, shards, 1, func(_, _ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/v1/shard/screen" {
				stall(req, stop)
				return
			}
			h.ServeHTTP(rw, req)
		})
	})
	t.Cleanup(func() { close(stop) })
	r := dialT(t, RouterConfig{ShardMap: urls, Timeout: 10 * time.Second})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	_, _, err := r.ClassifyBatchPartial(ctx, inst.Test[:1], 12, 3)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDialValidation: a shard map whose row slices leave a gap (or
// with no reachable replica) must be rejected at Dial, before any
// query can silently lose classes.
func TestDialValidation(t *testing.T) {
	testkit.NoLeaks(t)
	_, shards := fixture(t)
	urls, _ := startWorkers(t, shards, 1, nil)

	// A good map: Dial learns the geometry and the uniform version.
	r := dialT(t, RouterConfig{ShardMap: urls})
	if r.Hidden() != fixHidden || r.Categories() != fixClasses || r.Shards() != fixShards {
		t.Fatalf("geometry: hidden %d classes %d shards %d", r.Hidden(), r.Categories(), r.Shards())
	}
	if v := r.ModelVersion(); v != "vtest" {
		t.Fatalf("version = %q", v)
	}
	if r.VersionSkew() {
		t.Fatal("uniform cluster reports skew")
	}

	// Gap: shards 0 and 2 without 1.
	if _, err := Dial(context.Background(), RouterConfig{
		ShardMap:       [][]string{urls[0], urls[2]},
		HealthInterval: -1,
	}); err == nil || !strings.Contains(err.Error(), "tile") {
		t.Fatalf("gapped shard map: err = %v", err)
	}
	// Overlap: the same slice listed as two shards.
	if _, err := Dial(context.Background(), RouterConfig{
		ShardMap:       [][]string{urls[0], urls[0], urls[1], urls[2]},
		HealthInterval: -1,
	}); err == nil || !strings.Contains(err.Error(), "tile") {
		t.Fatalf("overlapping shard map: err = %v", err)
	}
	// Unreachable shard.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	if _, err := Dial(context.Background(), RouterConfig{
		ShardMap:       [][]string{{dead.URL}},
		HealthInterval: -1,
		Timeout:        200 * time.Millisecond,
	}); err == nil || !strings.Contains(err.Error(), "no replica reachable") {
		t.Fatalf("unreachable shard: err = %v", err)
	}
	if _, err := Dial(context.Background(), RouterConfig{HealthInterval: -1}); err == nil {
		t.Fatal("empty shard map accepted")
	}
}

// --- adversarial wire replies (stub shards, no real model) ---

// stubShard is a hand-rolled shard endpoint that replies with a fixed
// candidate list for every batch item — the tool for testing the
// router against replies a correct worker would never send.
func stubShard(t *testing.T, info ShardInfo, cands []WireCandidate) string {
	t.Helper()
	return stubShardAs(t, info, info, cands)
}

// stubShardAs is stubShard with a reply that claims the identity
// reply instead of info: a replica restarted as another shard behind
// the same address.
func stubShardAs(t *testing.T, info, reply ShardInfo, cands []WireCandidate) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/shard/info", func(rw http.ResponseWriter, _ *http.Request) {
		writeJSON(rw, http.StatusOK, info)
	})
	mux.HandleFunc("/readyz", func(rw http.ResponseWriter, _ *http.Request) { rw.WriteHeader(http.StatusOK) })
	mux.HandleFunc("/v1/shard/screen", func(rw http.ResponseWriter, req *http.Request) {
		frame, _ := io.ReadAll(req.Body)
		_, batch, err := DecodeScreenRequest(frame, new(WireScratch))
		if err != nil {
			writeError(rw, http.StatusBadRequest, err.Error())
			return
		}
		items := make([][]WireCandidate, len(batch))
		for i := range items {
			items[i] = cands
		}
		out, err := AppendScreenResponse(nil, &ScreenResponse{
			Offset: reply.Offset, Classes: reply.Classes, Version: reply.Version, Items: items,
		})
		if err != nil {
			t.Error(err)
		}
		rw.Header().Set("Content-Type", ContentTypeScreenV2)
		_, _ = rw.Write(out)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestRouterDedupesOverlappingReplies: a reply is merged only if it
// comes from the shard the router dialed. A replica whose candidates
// leave its slice (shard A, rows [0,2), reporting class 3 at logit 9),
// whose reply claims another slice, or whose item repeats a class or
// lists classes out of the ascending order a worker's top-m select
// returns, is a failed attempt, counted in shard_rpc_errors: the shard
// fails over to an honest replica, and ends partial when it has none.
func TestRouterDedupesOverlappingReplies(t *testing.T) {
	testkit.NoLeaks(t)
	infoA := ShardInfo{Offset: 0, Classes: 2, Hidden: 3, Version: "v1"}
	infoB := ShardInfo{Offset: 2, Classes: 2, Hidden: 3, Version: "v2"}
	outOfSlice := stubShard(t, infoA, []WireCandidate{{Class: 0, Logit: 1}, {Class: 3, Logit: 9}})
	asShardB := stubShardAs(t, infoA, infoB, []WireCandidate{{Class: 1, Logit: 8}})
	repeats := stubShard(t, infoA, []WireCandidate{{Class: 0, Logit: 1}, {Class: 0, Logit: 7}, {Class: 1, Logit: 2}})
	descending := stubShard(t, infoA, []WireCandidate{{Class: 1, Logit: 2}, {Class: 0, Logit: 1}})
	honestA := stubShard(t, infoA, []WireCandidate{{Class: 0, Logit: 1}, {Class: 1, Logit: 2}})
	b := stubShard(t, infoB, []WireCandidate{{Class: 2, Logit: 5}, {Class: 3, Logit: 4}})
	batch := [][]float32{{1, 2, 3}}
	want := []distributed.Candidate{{Class: 2, Logit: 5}, {Class: 3, Logit: 4}, {Class: 1, Logit: 2}, {Class: 0, Logit: 1}}

	for _, liar := range []string{outOfSlice, asShardB, repeats, descending} {
		// The liar is replica 0, so the first query tries it first.
		r := dialT(t, RouterConfig{ShardMap: [][]string{{liar, honestA}, {b}}})
		failBefore, errBefore := mFailoverTotal.Value(), mShardRPCErrors.Value()
		outs, p, err := r.ClassifyBatchPartial(context.Background(), batch, 4, 10)
		if err != nil {
			t.Fatal(err)
		}
		if p.Partial {
			t.Fatalf("partial = %+v with an honest replica of shard A up", p)
		}
		if d := mFailoverTotal.Value() - failBefore; d != 1 {
			t.Fatalf("failover_total delta %d, want 1", d)
		}
		if d := mShardRPCErrors.Value() - errBefore; d != 1 {
			t.Fatalf("shard_rpc_errors delta %d, want 1", d)
		}
		assertOutcome(t, 0, outs[0], want)

		// With the liar alone, shard A's slice is missing, never
		// scored by the wrong replica.
		r = dialT(t, RouterConfig{ShardMap: [][]string{{liar}, {b}}})
		outs, p, err = r.ClassifyBatchPartial(context.Background(), batch, 4, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Partial || len(p.MissingShards) != 1 || p.MissingShards[0] != 0 {
			t.Fatalf("partial = %+v, want shard 0 missing", p)
		}
		assertOutcome(t, 0, outs[0], want[:2])
	}

	// Mixed versions across shards = rolling update in flight.
	r := dialT(t, RouterConfig{ShardMap: [][]string{{honestA}, {b}}})
	if v := r.ModelVersion(); v != "v1,v2" {
		t.Fatalf("ModelVersion = %q", v)
	}
	if !r.VersionSkew() {
		t.Fatal("skewed cluster reports no skew")
	}
}

// TestRouterEmptyShardReply: a shard replying with zero candidates
// contributes nothing — the merge is the other shards' candidates,
// and the response is NOT partial (the shard answered).
func TestRouterEmptyShardReply(t *testing.T) {
	testkit.NoLeaks(t)
	a := stubShard(t, ShardInfo{Offset: 0, Classes: 2, Hidden: 3},
		[]WireCandidate{{Class: 1, Logit: 4}})
	b := stubShard(t, ShardInfo{Offset: 2, Classes: 2, Hidden: 3}, []WireCandidate{})
	r := dialT(t, RouterConfig{ShardMap: [][]string{{a}, {b}}})

	outs, p, err := r.ClassifyBatchPartial(context.Background(), [][]float32{{1, 2, 3}}, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.Partial {
		t.Fatalf("empty reply marked partial: %+v", p)
	}
	assertOutcome(t, 0, outs[0], []distributed.Candidate{{Class: 1, Logit: 4}})
}
