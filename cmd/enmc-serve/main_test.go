package main

// Scenario tests: each drives run — the same function main calls —
// in-process, against a shard fleet the test owns where the scenario
// needs one, and asserts the serving contract end to end over
// loopback HTTP. Telemetry is one registry per process, so metric
// assertions compare scrapes taken before and after.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"enmc/internal/cluster"
	"enmc/internal/core"
	"enmc/internal/distributed"
	"enmc/internal/quant"
	"enmc/internal/registry"
	"enmc/internal/server"
	"enmc/internal/telemetry"
	"enmc/internal/testkit"
	"enmc/internal/testkit/fleet"
	"enmc/internal/workload"
)

// The demo model every local and cluster scenario serves: small
// enough to train in well under a second, large enough that three
// shards each hold a real slice.
const (
	demoClasses = 480
	demoDim     = 64
	demoSeed    = 7
	demoEpochs  = 3

	// qosP99Budget is the interactive tenant's p99 latency budget while
	// a batch tenant floods the server.
	qosP99Budget = 500 * time.Millisecond
)

// syncBuffer is an io.Writer several goroutines may log into.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// served is one run of the server in a goroutine, and the client the
// test talks to it with.
type served struct {
	api, debug string // base URLs; debug is "" without -debug-addr
	client     *http.Client
	sig        chan os.Signal
	stderr     *syncBuffer
	done       chan error
	stopOnce   sync.Once
}

// checkWeightsLine: a server holding a classifier logs how much of it
// sits on huge pages once it has loaded it, on Linux and nowhere else.
func checkWeightsLine(t *testing.T, log string) {
	t.Helper()
	if got := strings.Contains(log, "MB on huge pages (THP "); got != (runtime.GOOS == "linux") {
		t.Errorf("huge-page line logged: %v on %s:\n%s", got, runtime.GOOS, log)
	}
}

// startServe runs the server on a loopback port with args and waits
// until it listens. A cleanup stops it if the test has not.
func startServe(t *testing.T, c *http.Client, args ...string) *served {
	t.Helper()
	s := &served{client: c, sig: make(chan os.Signal, 1), stderr: &syncBuffer{}, done: make(chan error, 1)}
	bound := make(chan [2]string, 1)
	go func() {
		s.done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), s.stderr, s.sig,
			func(api, debug string) { bound <- [2]string{api, debug} })
	}()
	select {
	case b := <-bound:
		s.api = "http://" + b[0]
		if b[1] != "" {
			s.debug = "http://" + b[1]
		}
	case err := <-s.done:
		t.Fatalf("run returned before listening: %v\n%s", err, s.stderr)
	case <-time.After(time.Minute):
		t.Fatalf("server never listened\n%s", s.stderr)
	}
	t.Cleanup(func() { s.stop(t) })
	return s
}

// stop sends SIGTERM and requires run to drain and return nil. It
// first closes the client's idle connections: Shutdown waits 5 s for a
// connection the transport dialed but never sent a request on.
func (s *served) stop(t *testing.T) {
	t.Helper()
	s.stopOnce.Do(func() {
		s.client.CloseIdleConnections()
		s.sig <- syscall.SIGTERM
		select {
		case err := <-s.done:
			if err != nil {
				t.Errorf("run: %v\n%s", err, s.stderr)
			}
		case <-time.After(time.Minute):
			t.Errorf("run did not return after SIGTERM\n%s", s.stderr)
		}
	})
}

// scenarioModel is the demo classifier and a screener distilled from
// its training set, written as the files -classifier and -screener
// read.
type scenarioModel struct{ cls, scr string }

// writeModel trains the scenario model and writes it to a temporary
// directory.
func writeModel(t *testing.T) scenarioModel {
	t.Helper()
	inst := workload.Demo(demoClasses, demoDim, demoSeed)
	scr, _, err := core.TrainScreener(inst.Classifier, inst.Train, core.Config{
		Categories: demoClasses, Hidden: demoDim, Reduced: demoDim / 4, Precision: quant.INT4, Seed: demoSeed,
	}, core.TrainOptions{Epochs: demoEpochs, Seed: demoSeed + 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m := scenarioModel{cls: filepath.Join(dir, "cls.bin"), scr: filepath.Join(dir, "scr.bin")}
	for path, w := range map[string]io.WriterTo{m.cls: inst.Classifier, m.scr: scr} {
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// startFleet starts 3 shards × 2 replicas of m, each shard built
// exactly as enmc-shard builds it: its rows of the model's one
// classifier and screener, as read from m's files; with reqLog non-nil
// every worker writes its JSON request log there.
func startFleet(t *testing.T, m scenarioModel, reqLog io.Writer) *fleet.Fleet {
	t.Helper()
	cls, err := readFile(m.cls, core.ReadClassifier)
	if err != nil {
		t.Fatal(err)
	}
	scr, err := readFile(m.scr, core.ReadScreener)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := distributed.ShardClassifier(cls, scr, 3)
	if err != nil {
		t.Fatal(err)
	}
	return fleet.Start(t, shards, 2, func(w *cluster.Worker) {
		if reqLog != nil {
			w.SetRequestLog(telemetry.NewRequestLog(reqLog, telemetry.RequestLogOptions{JSON: true}))
		}
	})
}

func newClient(t *testing.T) *http.Client {
	c := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 64},
	}
	t.Cleanup(c.CloseIdleConnections)
	return c
}

// hammer calls fn in a loop from n goroutines, each with its own rng,
// until the returned stop function is called; stop waits for them.
func hammer(n int, fn func(rng *rand.Rand)) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-quit:
					return
				default:
					fn(rng)
				}
			}
		}(int64(i))
	}
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		wg.Wait()
	}
}

func randVec(rng *rand.Rand, n int) []float32 {
	h := make([]float32, n)
	for i := range h {
		h[i] = float32(rng.NormFloat64())
	}
	return h
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %s waiting for %s", timeout, what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// reply is one /v1/classify answer.
type reply struct {
	status  int
	reqID   string
	latency time.Duration
	server.ClassifyResponse
}

// classify posts h to /v1/classify under API key (none when "").
// A transport failure is an error.
func classify(c *http.Client, base, key string, h []float32) (reply, error) {
	body, err := json.Marshal(server.ClassifyRequest{H: h, TopK: 3})
	if err != nil {
		return reply{}, err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/classify", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("X-Enmc-Api-Key", key)
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	r := reply{status: resp.StatusCode, reqID: resp.Header.Get("X-Request-Id")}
	err = json.NewDecoder(resp.Body).Decode(&r)
	r.latency = time.Since(start)
	if err == nil {
		// Read to EOF so the connection goes back to the pool.
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return r, err
}

// classifyBatch posts hs to /v1/classify_batch under API key and
// returns the status. A transport failure is an error.
func classifyBatch(c *http.Client, base, key string, hs [][]float32) (int, error) {
	body, err := json.Marshal(server.ClassifyBatchRequest{Batch: hs, TopK: 3})
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/classify_batch", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Enmc-Api-Key", key)
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// getJSON decodes a GET's 200 body into v.
func getJSON(t *testing.T, c *http.Client, url string, v any) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// scrape fetches a /metrics endpoint and requires it to parse and
// validate as Prometheus text exposition.
func scrape(t *testing.T, c *http.Client, url string) *testkit.PromText {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	p, err := testkit.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("%s does not parse: %v", url, err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("%s is invalid: %v", url, err)
	}
	return p
}

// total sums every sample of a metric family: all label sets, and a
// histogram's _count when given its bare name.
func total(p *testkit.PromText, name string) float64 {
	var sum float64
	for _, s := range p.Samples {
		if s.Name == name || s.Name == name+"_count" {
			sum += s.Value
		}
	}
	return sum
}

// decodeOutcome is one decode session read to its end.
type decodeOutcome struct {
	status  int
	tokens  int
	dropped bool   // a 200 stream that ended without its done frame
	failed  string // the done frame's error
}

// decodeSession opens an NDJSON session and reads it to the end.
func decodeSession(c *http.Client, base string, req server.DecodeRequest) (decodeOutcome, error) {
	req.Stream = "ndjson"
	body, err := json.Marshal(req)
	if err != nil {
		return decodeOutcome{}, err
	}
	resp, err := c.Post(base+"/v1/decode", "application/json", bytes.NewReader(body))
	if err != nil {
		return decodeOutcome{}, err
	}
	defer resp.Body.Close()
	out := decodeOutcome{status: resp.StatusCode, dropped: resp.StatusCode == http.StatusOK}
	if resp.StatusCode != http.StatusOK {
		_, err := io.Copy(io.Discard, resp.Body)
		return out, err
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var done server.DecodeDone
		if err := json.Unmarshal(sc.Bytes(), &done); err != nil {
			return out, err
		}
		if done.Done {
			out.dropped, out.failed = false, done.Error
			break
		}
		out.tokens++
	}
	return out, sc.Err()
}

// TestClusterScenario: a 3×2 cluster behind run(-cluster) under
// closed-loop load. Killing one replica mid-load costs nothing (zero
// non-200s, zero partial merges); killing both replicas of shard 1
// degrades to a 200 flagged partial with missing_shards [1]; restarting
// them on the same addresses restores full merges and clean load.
func TestClusterScenario(t *testing.T) {
	testkit.NoLeaks(t)
	f := startFleet(t, writeModel(t), nil)
	c := newClient(t)
	s := startServe(t, c, "-cluster", f.Spec(), "-cluster-health-interval", "100ms")

	var ok, bad, partial atomic.Int64
	load := func() (stop func()) {
		ok.Store(0)
		bad.Store(0)
		partial.Store(0)
		return hammer(4, func(rng *rand.Rand) {
			r, err := classify(c, s.api, "", randVec(rng, demoDim))
			switch {
			case err != nil || r.status != http.StatusOK:
				bad.Add(1)
			case r.Partial:
				partial.Add(1)
			default:
				ok.Add(1)
			}
		})
	}

	stop := load()
	waitFor(t, "warm-up load", 30*time.Second, func() bool { return ok.Load() >= 50 })
	f.Shards[0][1].Kill()
	killedAt := ok.Load()
	waitFor(t, "load after the replica kill", 30*time.Second, func() bool { return ok.Load() >= killedAt+200 })
	stop()
	if b, p := bad.Load(), partial.Load(); b != 0 || p != 0 {
		t.Fatalf("one replica down: %d non-200s and %d partial merges of %d", b, p, ok.Load()+b+p)
	}

	f.Shards[1][0].Kill()
	f.Shards[1][1].Kill()
	r, err := classify(c, s.api, "", make([]float32, demoDim))
	if err != nil {
		t.Fatal(err)
	}
	if r.status != http.StatusOK || !r.Partial || len(r.MissingShards) != 1 || r.MissingShards[0] != 1 {
		t.Fatalf("shard 1 down: status %d partial %v missing %v, want 200 partial [1]",
			r.status, r.Partial, r.MissingShards)
	}

	f.Shards[1][0].Restart(t)
	f.Shards[1][1].Restart(t)
	waitFor(t, "full merges after the restart", 30*time.Second, func() bool {
		r, err := classify(c, s.api, "", make([]float32, demoDim))
		return err == nil && r.status == http.StatusOK && !r.Partial
	})
	stop = load()
	waitFor(t, "load after recovery", 30*time.Second, func() bool { return ok.Load() >= 200 })
	stop()
	if b, p := bad.Load(), partial.Load(); b != 0 || p != 0 {
		t.Fatalf("after recovery: %d non-200s and %d partial merges", b, p)
	}
	s.stop(t)
}

// TestDecodeScenario: streaming decode through run(-decode) over one
// model. Locally (-classifier -screener), an SSE session streams 5
// token frames then done; greedy and beam (width 4) NDJSON load
// finishes every stream. (The session caps are internal/server's
// tests: they need a stream held open.) Over the 3×2 cluster of the
// same model, decode needs -classifier for the decoder; with it,
// killing a replica mid-session drops no stream: the tokens that hit
// it fail over (cluster_failover_total rises on the debug /metrics).
func TestDecodeScenario(t *testing.T) {
	testkit.NoLeaks(t)
	c := newClient(t)
	h0 := randVec(rand.New(rand.NewSource(1)), demoDim)
	m := writeModel(t)

	s := startServe(t, c, "-classifier", m.cls, "-screener", m.scr, "-decode", "-decode-maxlen", "24")
	checkWeightsLine(t, s.stderr.String())
	body, err := json.Marshal(server.DecodeRequest{H0: h0, MaxTokens: 5})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Post(s.api+"/v1/decode", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var events []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			events = append(events, ev)
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if want := "token token token token token done"; strings.Join(events, " ") != want {
		t.Fatalf("SSE events %q, want %q", events, want)
	}

	var sessions, bad, dropped atomic.Int64
	decodeLoad := func(clients int, base string, req server.DecodeRequest) (stop func()) {
		sessions.Store(0)
		bad.Store(0)
		dropped.Store(0)
		return hammer(clients, func(rng *rand.Rand) {
			req := req
			req.H0 = randVec(rng, demoDim)
			out, err := decodeSession(c, base, req)
			switch {
			case out.dropped:
				dropped.Add(1)
			case err != nil || out.status != http.StatusOK || out.failed != "":
				bad.Add(1)
			default:
				sessions.Add(1)
			}
		})
	}
	for _, req := range []server.DecodeRequest{{Mode: "greedy"}, {Mode: "beam", Width: 4}} {
		stop := decodeLoad(4, s.api, req)
		waitFor(t, req.Mode+" sessions", 30*time.Second, func() bool { return sessions.Load() >= 24 })
		stop()
		if b, d := bad.Load(), dropped.Load(); b != 0 || d != 0 {
			t.Fatalf("%s load: %d failed and %d cut streams of %d", req.Mode, b, d, sessions.Load()+b+d)
		}
	}
	s.stop(t)

	f := startFleet(t, m, nil)
	sig := make(chan os.Signal, 1)
	sig <- syscall.SIGTERM // a server that did listen drains at once
	if err := run([]string{"-addr", "127.0.0.1:0", "-cluster", f.Spec(), "-decode"}, &syncBuffer{}, sig, nil); err == nil || !strings.Contains(err.Error(), "needs -classifier") {
		t.Fatalf("-cluster -decode without -classifier: run = %v, want an error asking for -classifier", err)
	}
	cs := startServe(t, c, "-cluster", f.Spec(), "-cluster-health-interval", "100ms", "-classifier", m.cls,
		"-decode", "-decode-maxlen", "24", "-debug-addr", "127.0.0.1:0")
	failovers := func() float64 { return total(scrape(t, c, cs.debug+"/metrics"), "cluster_failover_total") }
	stop := decodeLoad(16, cs.api, server.DecodeRequest{})
	waitFor(t, "cluster sessions", 30*time.Second, func() bool { return sessions.Load() >= 16 })
	before := failovers()
	f.Shards[0][1].Kill()
	killedAt := sessions.Load()
	waitFor(t, "sessions after the replica kill", 30*time.Second, func() bool { return sessions.Load() >= killedAt+16 })
	stop()
	if b, d := bad.Load(), dropped.Load(); b != 0 || d != 0 {
		t.Fatalf("replica killed mid-session: %d failed and %d cut streams", b, d)
	}
	if after := failovers(); after <= before {
		t.Fatalf("cluster_failover_total %v → %v: no token failed over off the killed replica", before, after)
	}
	cs.stop(t)
}

// TestServeNeedsModel: the server never trains, so with no model flag
// run returns an error naming the three ways to give it one and
// enmc-train -demo, and never listens.
func TestServeNeedsModel(t *testing.T) {
	testkit.NoLeaks(t)
	for _, args := range [][]string{nil, {"-classifier", "cls.bin"}} {
		sig := make(chan os.Signal, 1)
		sig <- syscall.SIGTERM // a server that did listen drains at once
		err := run(append([]string{"-addr", "127.0.0.1:0"}, args...), &syncBuffer{}, sig,
			func(api, _ string) { t.Errorf("%q: listened on %s without a model", args, api) })
		if err == nil {
			t.Fatalf("%q: run returned nil, want a no-model error", args)
		}
		for _, want := range []string{"-model-root", "-classifier", "-screener", "-cluster", "enmc-train -demo"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%q: error %q does not name %s", args, err, want)
			}
		}
	}
}

// TestDecodeDefaultM: without -m, decode screens at the classify
// path's default budget, classes/64 — 7 for the 480-class scenario
// model — and not at the decode package's own fallback of 24.
func TestDecodeDefaultM(t *testing.T) {
	testkit.NoLeaks(t)
	c := newClient(t)
	m := writeModel(t)
	s := startServe(t, c, "-classifier", m.cls, "-screener", m.scr, "-decode")
	body, err := json.Marshal(server.DecodeRequest{H0: randVec(rand.New(rand.NewSource(2)), demoDim), MaxTokens: 3, Stream: "ndjson"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Post(s.api+"/v1/decode", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := 0
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		var line struct {
			server.DecodeFrame
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Done {
			break
		}
		if frames++; line.M != demoClasses/64 {
			t.Fatalf("frame %d screened at m=%d, want %d (%d classes / 64)", line.T, line.M, demoClasses/64, demoClasses)
		}
	}
	if frames == 0 {
		t.Fatal("decode stream carried no token frames")
	}
}

// TestMetricsScenario: run(-cluster -trace -log-json -debug-addr) over
// the 3×2 cluster under load. Router and replica scrapes parse and
// validate with the serving counters advanced — requests counted ok and
// none counted fault; every replica received screens; every response carries X-Request-Id; one trace ID has spans
// on at least two process lanes; router and shard request logs are
// structured; /v1/slo lists /v1/classify.
func TestMetricsScenario(t *testing.T) {
	testkit.NoLeaks(t)
	prev := telemetry.Global()
	t.Cleanup(func() { telemetry.SetGlobal(prev) })
	shardLog := &syncBuffer{}
	f := startFleet(t, writeModel(t), shardLog)
	c := newClient(t)
	s := startServe(t, c, "-cluster", f.Spec(), "-cluster-health-interval", "100ms",
		"-trace", "-log-json", "-slow-log", "100ms", "-debug-addr", "127.0.0.1:0")

	advanced := []string{"cluster_shard_rpc_total", "server_http_classify_ns",
		"server_queue_wait_ns", "cluster_worker_traced_requests"}
	requests := func(p *testkit.PromText, outcome string) float64 {
		v, _ := p.Value("server_http_requests", map[string]string{"outcome": outcome})
		return v
	}
	// The debug listener goes first: its scrape must publish this
	// server's SLO window by itself.
	endpoints := []string{s.debug + "/metrics", s.api + "/metrics"}
	p0 := scrape(t, c, endpoints[1])
	before := map[string]float64{}
	for _, name := range advanced {
		before[name] = total(p0, name)
	}
	okBefore, faultBefore := requests(p0, "ok"), requests(p0, "fault")

	var ok, bad, noID atomic.Int64
	stop := hammer(4, func(rng *rand.Rand) {
		r, err := classify(c, s.api, "", randVec(rng, demoDim))
		switch {
		case err != nil || r.status != http.StatusOK:
			bad.Add(1)
		default:
			ok.Add(1)
		}
		if err == nil && r.reqID == "" {
			noID.Add(1)
		}
	})
	waitFor(t, "load", 30*time.Second, func() bool { return ok.Load() >= 200 })
	stop()
	if b, n := bad.Load(), noID.Load(); b != 0 || n != 0 {
		t.Fatalf("%d non-200s, %d responses without X-Request-Id", b, n)
	}

	for _, url := range endpoints {
		p := scrape(t, c, url)
		for _, name := range advanced {
			if got := total(p, name); got <= before[name] {
				t.Errorf("%s: %s did not advance (%v → %v)", url, name, before[name], got)
			}
		}
		if ok, fault := requests(p, "ok"), requests(p, "fault"); ok <= okBefore || fault != faultBefore {
			t.Errorf("%s: server_http_requests{outcome=\"ok\"} %v → %v, {outcome=\"fault\"} %v → %v; want ok to advance, fault to stay",
				url, okBefore, ok, faultBefore, fault)
		}
		// A gauge the scrape sets from this server's SLO window, which
		// holds every request the load sent.
		window := 0.0
		for _, smp := range p.Samples {
			if smp.Name == "slo_requests_window" && smp.Labels["endpoint"] == "/v1/classify" {
				window = smp.Value
			}
		}
		if window < float64(ok.Load()) {
			t.Errorf("%s: slo_requests_window{endpoint=\"/v1/classify\"} = %v, want >= %d", url, window, ok.Load())
		}
	}
	for i := range f.Shards {
		for j, rep := range f.Shards[i] {
			scrape(t, c, "http://"+rep.Addr+"/metrics")
			if rep.Screens.Load() == 0 {
				t.Errorf("shard %d replica %d received no screens", i, j)
			}
		}
	}

	var capture struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
			Args struct {
				Trace string `json:"trace"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	getJSON(t, c, s.debug+"/debug/spans", &capture)
	pids := map[string]map[int]bool{}
	widest := 0
	for _, ev := range capture.TraceEvents {
		if ev.Ph != "X" || ev.Args.Trace == "" {
			continue
		}
		if pids[ev.Args.Trace] == nil {
			pids[ev.Args.Trace] = map[int]bool{}
		}
		pids[ev.Args.Trace][ev.PID] = true
		widest = max(widest, len(pids[ev.Args.Trace]))
	}
	if widest < 2 {
		t.Errorf("widest of %d traces spans %d process lanes, want >= 2", len(pids), widest)
	}

	var slo telemetry.SLOSummary
	getJSON(t, c, s.api+"/v1/slo", &slo)
	listed := false
	for _, ep := range slo.Endpoints {
		listed = listed || ep.Endpoint == "/v1/classify"
	}
	if !listed {
		t.Errorf("/v1/slo does not list /v1/classify: %+v", slo.Endpoints)
	}

	s.stop(t)
	if !hasRecord(s.stderr.String(), "req_id", "trace_id") {
		t.Errorf("router stderr has no JSON request record with req_id and trace_id:\n%s", s.stderr)
	}
	if !hasRecord(shardLog.String(), "req_id") {
		t.Error("shard request logs have no JSON record with req_id")
	}
}

// hasRecord reports whether some line of log is a JSON object with
// every key set.
func hasRecord(log string, keys ...string) bool {
	for _, line := range strings.Split(log, "\n") {
		var rec map[string]any
		if json.Unmarshal([]byte(line), &rec) != nil {
			continue
		}
		found := true
		for _, k := range keys {
			if v, ok := rec[k].(string); !ok || v == "" {
				found = false
			}
		}
		if found {
			return true
		}
	}
	return false
}

// publish trains a screener for the demo classifier and publishes it
// into the registry as version.
func publish(t *testing.T, store *registry.Store, inst *workload.Instance, version, parent string, reduced int, bits quant.Bits, epochs int) {
	t.Helper()
	scr, _, err := core.TrainScreener(inst.Classifier, inst.Train, core.Config{
		Categories: demoClasses, Hidden: demoDim, Reduced: reduced, Precision: bits, Seed: 1,
	}, core.TrainOptions{Epochs: epochs, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Publish(registry.Manifest{Version: version, Parent: parent}, inst.Classifier, scr, inst.Valid); err != nil {
		t.Fatal(err)
	}
}

// registryFixture publishes v1 and v2 of the demo model.
func registryFixture(t *testing.T) (*registry.Store, *workload.Instance) {
	t.Helper()
	store, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.Demo(demoClasses, demoDim, demoSeed)
	publish(t, store, inst, "v1", "", demoDim/4, quant.INT4, 2)
	publish(t, store, inst, "v2", "v1", demoDim/4, quant.INT4, 3)
	return store, inst
}

// TestSwapScenario: run(-model-root -model-version v1 -canary-floor 0.5)
// under load. Reloading v2 swaps it in (200); a canary-failing v3-bad
// and a checksum-corrupted v4-corrupt are refused (409, saying why);
// /v1/model then shows v2 with exactly one more swap and one more
// canary rejection; no request fails throughout.
func TestSwapScenario(t *testing.T) {
	testkit.NoLeaks(t)
	store, inst := registryFixture(t)
	publish(t, store, inst, "v3-bad", "v1", 1, quant.INT2, 1)
	publish(t, store, inst, "v4-corrupt", "v2", demoDim/4, quant.INT4, 2)
	path := filepath.Join(store.Dir("v4-corrupt"), registry.ScreenerFile)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(img) / 2; i < len(img)/2+64; i++ {
		img[i] ^= 0xff
	}
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	c := newClient(t)
	s := startServe(t, c, "-model-root", store.Root(), "-model-version", "v1", "-canary-floor", "0.5")
	checkWeightsLine(t, s.stderr.String())
	var base server.ModelStatusResponse
	getJSON(t, c, s.api+"/v1/model", &base)

	var ok, bad atomic.Int64
	stop := hammer(4, func(rng *rand.Rand) {
		if r, err := classify(c, s.api, "", randVec(rng, demoDim)); err != nil || r.status != http.StatusOK {
			bad.Add(1)
		} else {
			ok.Add(1)
		}
	})
	defer stop()
	reload := func(version string, want int, says string) {
		t.Helper()
		waitFor(t, "load before reloading "+version, 30*time.Second, func() bool { return ok.Load() >= 50 })
		ok.Store(0)
		resp, err := c.Post(s.api+"/v1/model/reload", "application/json",
			strings.NewReader(`{"version":"`+version+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		msg, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want || !strings.Contains(string(msg), says) {
			t.Fatalf("reload %s: %d %s, want %d mentioning %q", version, resp.StatusCode, msg, want, says)
		}
	}
	reload("v2", http.StatusOK, `"version":"v2"`)
	reload("v3-bad", http.StatusConflict, "canary")
	reload("v4-corrupt", http.StatusConflict, "checksum")
	waitFor(t, "load after the reloads", 30*time.Second, func() bool { return ok.Load() >= 50 })
	stop()
	if b := bad.Load(); b != 0 {
		t.Fatalf("%d requests failed across the reloads", b)
	}

	var m server.ModelStatusResponse
	getJSON(t, c, s.api+"/v1/model", &m)
	if m.Version != "v2" || m.SwapTotal != base.SwapTotal+1 || m.CanaryReject != base.CanaryReject+1 {
		t.Fatalf("/v1/model %+v (before %+v): want v2, one more swap, one more canary rejection", m, base)
	}
	s.stop(t)
}

const tenantsGen1 = `{"tenants": [
  {"name": "alice",  "key": "alice",  "class": "interactive", "rate": 5000, "burst": 500},
  {"name": "bob",    "key": "bob",    "class": "batch",       "rate": 5000, "burst": 500},
  {"name": "frozen", "key": "frozen", "class": "standard",    "rate": 100,  "model_version": "v1"}
]}`

// tenantsGen2 crushes bob's quota.
const tenantsGen2 = `{"tenants": [
  {"name": "alice",  "key": "alice",  "class": "interactive", "rate": 5000, "burst": 500},
  {"name": "bob",    "key": "bob",    "class": "batch",       "rate": 5,    "burst": 1},
  {"name": "frozen", "key": "frozen", "class": "standard",    "rate": 100,  "model_version": "v1"}
]}`

// TestQoSScenario: a paced interactive tenant (alice) against a
// 32-worker batch flood (bob) on a queue of 8, batch 8, one flush
// worker, and a second bob flood of 4-item /v1/classify_batch posts,
// which queue in the same batch class. Mid-load the tenant file is
// rewritten and SIGHUP reloads it: from then on bob is served no faster
// than his new quota. Alice sees no 429, no 5xx, no transport error and
// a p99 within budget, and her admissions are counted under her labels;
// bob draws 429s and never a 5xx; the batch class absorbs at least 95 %
// of shed + degraded + throttled; the tenant pinned to v1 is served by
// v1 while alice gets the active v2; and /v1/tenants lists alice and
// bob.
func TestQoSScenario(t *testing.T) {
	testkit.NoLeaks(t)
	store, _ := registryFixture(t)
	tenantsPath := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(tenantsPath, []byte(tenantsGen1), 0o644); err != nil {
		t.Fatal(err)
	}
	c := newClient(t)
	s := startServe(t, c, "-model-root", store.Root(), "-model-version", "v2", "-canary-floor", "0.5",
		"-tenants", tenantsPath, "-queue-cap", "8", "-max-batch", "8", "-flush-workers", "1")

	// pressure reads the labeled tenant counters: shed + degraded +
	// throttled in the batch class and in all, and alice's admissions.
	pressure := func() (batch, all, alice float64) {
		for _, smp := range scrape(t, c, s.api+"/metrics").Samples {
			switch smp.Name {
			case "tenant_shed", "tenant_degraded", "tenant_throttled":
				all += smp.Value
				if smp.Labels["class"] == "batch" {
					batch += smp.Value
				}
			case "tenant_admitted":
				if smp.Labels["tenant"] == "alice" && smp.Labels["class"] == "interactive" {
					alice += smp.Value
				}
			}
		}
		return batch, all, alice
	}
	batch0, all0, alice0 := pressure()

	var mu sync.Mutex
	var aliceLat []time.Duration
	var aliceBad, bobTransport, bob429, bobBatchOK, bobBatch429, bobBatchBad atomic.Int64
	stopAlice := hammer(1, func(rng *rand.Rand) {
		r, err := classify(c, s.api, "alice", randVec(rng, demoDim))
		if err != nil || r.status != http.StatusOK {
			aliceBad.Add(1)
		} else {
			mu.Lock()
			aliceLat = append(aliceLat, r.latency)
			mu.Unlock()
		}
		time.Sleep(10 * time.Millisecond)
	})
	var reloaded atomic.Bool
	var bobServedAfter atomic.Int64 // requests sent after the reload and answered 200
	stopBob := hammer(32, func(rng *rand.Rand) {
		after := reloaded.Load()
		r, err := classify(c, s.api, "bob", randVec(rng, demoDim))
		switch {
		case err != nil:
			bobTransport.Add(1)
		case r.status == http.StatusTooManyRequests:
			bob429.Add(1)
		case r.status == http.StatusOK && after:
			bobServedAfter.Add(1)
		}
	})
	stopBobBatch := hammer(8, func(rng *rand.Rand) {
		hs := make([][]float32, 4)
		for i := range hs {
			hs[i] = randVec(rng, demoDim)
		}
		switch code, err := classifyBatch(c, s.api, "bob", hs); {
		case err == nil && code == http.StatusOK:
			bobBatchOK.Add(1)
		case err == nil && code == http.StatusTooManyRequests:
			bobBatch429.Add(1)
		default:
			bobBatchBad.Add(1)
		}
	})
	defer stopBobBatch()
	defer stopBob()
	defer stopAlice()

	time.Sleep(time.Second)
	if err := os.WriteFile(tenantsPath, []byte(tenantsGen2), 0o644); err != nil {
		t.Fatal(err)
	}
	s.sig <- syscall.SIGHUP
	waitFor(t, "the tenant reload", 30*time.Second, func() bool {
		return strings.Contains(s.stderr.String(), "SIGHUP tenant reload:")
	})
	reloaded.Store(true)
	reloadedAt := time.Now()
	time.Sleep(time.Second)
	stopBob()
	sinceReload := time.Since(reloadedAt)
	stopBobBatch()
	stopAlice()

	sort.Slice(aliceLat, func(i, j int) bool { return aliceLat[i] < aliceLat[j] })
	if len(aliceLat) == 0 || aliceBad.Load() != 0 {
		t.Fatalf("alice: %d served, %d refused or failed", len(aliceLat), aliceBad.Load())
	}
	p99 := aliceLat[len(aliceLat)*99/100]
	t.Logf("alice: %d served, p99 %s; bob: %d single 429s, batches %d served / %d 429s",
		len(aliceLat), p99, bob429.Load(), bobBatchOK.Load(), bobBatch429.Load())
	if p99 > qosP99Budget {
		t.Errorf("alice p99 %s over the %s budget", p99, qosP99Budget)
	}
	if bob429.Load() == 0 || bobTransport.Load() != 0 {
		t.Errorf("bob: %d 429s, %d transport errors; want some 429s and no transport error", bob429.Load(), bobTransport.Load())
	}
	if n := bobBatchBad.Load(); n != 0 {
		t.Errorf("bob's batches: %d answered neither 200 nor 429", n)
	}
	// The new bucket holds one token and refills 5 a second.
	if n, quota := bobServedAfter.Load(), 2+5*sinceReload.Seconds(); float64(n) > quota {
		t.Errorf("bob was served %d requests in the %s after the reload, his new quota allows %.0f",
			n, sinceReload.Round(time.Millisecond), quota)
	}
	batch1, all1, alice1 := pressure()
	if b, a := batch1-batch0, all1-all0; a == 0 || b < 0.95*a {
		t.Errorf("batch class absorbed %v of %v pressure events, want >= 95 %%", b, a)
	}
	if n := alice1 - alice0; n < float64(len(aliceLat)) {
		t.Errorf("tenant_admitted{tenant=\"alice\",class=\"interactive\"} rose by %v, alice was served %d", n, len(aliceLat))
	}

	for key, want := range map[string]string{"alice": "v2", "frozen": "v1"} {
		r, err := classify(c, s.api, key, make([]float32, demoDim))
		if err != nil || r.status != http.StatusOK || r.ModelVersion != want || r.Tenant != key {
			t.Errorf("%s: status %d version %q tenant %q (%v), want %s", key, r.status, r.ModelVersion, r.Tenant, err, want)
		}
	}
	var listed server.TenantsResponse
	getJSON(t, c, s.api+"/v1/tenants", &listed)
	names := map[string]bool{}
	for _, sum := range listed.Tenants {
		names[sum.Tenant] = true
	}
	if !names["alice"] || !names["bob"] {
		t.Errorf("/v1/tenants lists %v, want alice and bob", names)
	}
	s.stop(t)
}
