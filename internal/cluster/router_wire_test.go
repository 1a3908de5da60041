package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enmc/internal/core"
	"enmc/internal/telemetry"
	"enmc/internal/testkit"
)

// --- the screen endpoint speaks one codec ---

// screenCase is one body posted to /v1/shard/screen and the status the
// worker must answer it with.
type screenCase struct {
	name        string
	contentType string
	body        []byte
	want        int
}

// screenCases: the v2 frame is served; everything else is refused —
// a foreign (or missing) Content-Type with 415, a malformed frame or
// a batch the shard cannot screen with 400.
func screenCases(t testing.TB, batch [][]float32) []screenCase {
	frame := screenFrame(t, 8, batch)
	badVersion := append([]byte(nil), frame...)
	badVersion[4] = WireVersion + 1
	return []screenCase{
		{"v2 frame", ContentTypeScreenV2, frame, http.StatusOK},
		{"json body", "application/json", []byte(`{"batch":[[1,2,3]],"m":3}`), http.StatusUnsupportedMediaType},
		{"no content type", "", frame, http.StatusUnsupportedMediaType},
		{"truncated frame", ContentTypeScreenV2, frame[:len(frame)-5], http.StatusBadRequest},
		{"trailing bytes", ContentTypeScreenV2, append(append([]byte(nil), frame...), 0, 0, 0), http.StatusBadRequest},
		{"bad version byte", ContentTypeScreenV2, badVersion, http.StatusBadRequest},
		{"empty batch", ContentTypeScreenV2, screenFrame(t, 8, nil), http.StatusBadRequest},
		{"wrong feature length", ContentTypeScreenV2, screenFrame(t, 8, [][]float32{{1, 2, 3}}), http.StatusBadRequest},
	}
}

// postScreen posts one case through client. The Accept header asks for
// JSON on purpose: the reply codec must not depend on it.
func postScreen(t testing.TB, client *http.Client, base string, c screenCase) (int, http.Header, []byte) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/shard/screen", bytes.NewReader(c.body))
	if c.contentType != "" {
		req.Header.Set("Content-Type", c.contentType)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestWorkerScreenContentTypes: a v2 frame comes back as a v2 frame —
// whatever the Accept header says — whose candidates are the shard's
// own pipeline bit for bit; every refusal carries a JSON error body.
func TestWorkerScreenContentTypes(t *testing.T) {
	testkit.NoLeaks(t)
	inst, shards := fixture(t)
	w, err := NewWorker(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	batch := inst.Test[:3]
	for _, c := range screenCases(t, batch) {
		t.Run(c.name, func(t *testing.T) {
			status, hdr, body := postScreen(t, srv.Client(), srv.URL, c)
			if status != c.want {
				t.Fatalf("status = %d, want %d: %s", status, c.want, body)
			}
			if status != http.StatusOK {
				var eb errorBody
				if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
					t.Fatalf("refusal body is not a JSON error: %q (%v)", body, err)
				}
				return
			}
			if ct := hdr.Get("Content-Type"); ct != ContentTypeScreenV2 {
				t.Fatalf("reply Content-Type = %q, want %q", ct, ContentTypeScreenV2)
			}
			sr := decodeReply(t, body)
			sh := shards[0]
			if sr.Offset != sh.Offset || sr.Classes != sh.Classifier.Categories() || sr.Version != sh.Version {
				t.Fatalf("identity = %d/%d/%q", sr.Offset, sr.Classes, sr.Version)
			}
			if len(sr.Items) != len(batch) {
				t.Fatalf("%d items, want %d", len(sr.Items), len(batch))
			}
			for i, h := range batch {
				res := core.ClassifyApprox(sh.Classifier, sh.Screener, h, core.TopM(8))
				if len(sr.Items[i]) != len(res.Candidates) {
					t.Fatalf("item %d: %d candidates, want %d", i, len(sr.Items[i]), len(res.Candidates))
				}
				for j, cand := range res.Candidates {
					want := WireCandidate{Class: sh.Offset + cand, Logit: res.Exact[j]}
					if got := sr.Items[i][j]; got != want {
						t.Fatalf("item %d[%d] = %+v, want %+v", i, j, got, want)
					}
				}
			}
		})
	}
}

// TestWorkerScreenCanceled: a screen the router has already abandoned
// answers 499 and leaves no error in the worker's SLO window.
func TestWorkerScreenCanceled(t *testing.T) {
	inst, shards := fixture(t)
	w, err := NewWorker(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/shard/screen",
		bytes.NewReader(screenFrame(t, 8, inst.Test[:3]))).WithContext(ctx)
	req.Header.Set("Content-Type", ContentTypeScreenV2)
	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, req)
	if rec.Code != telemetry.StatusClientClosed {
		t.Fatalf("status = %d, want 499: %s", rec.Code, rec.Body)
	}
	for _, ep := range w.slo.Summary().Endpoints {
		if ep.Errors != 0 {
			t.Errorf("worker SLO endpoint %s: %d errors, want 0", ep.Endpoint, ep.Errors)
		}
	}
}

// TestReadFrameLyingLengthPrefix: the length prefix is the peer's
// claim, not a fact — a header announcing the largest legal payload
// over an empty body is a prompt error that sizes no buffer from the
// claim (the scratch goes back to the pool afterwards).
func TestReadFrameLyingLengthPrefix(t *testing.T) {
	hdr := appendHeader(nil, frameKindRequest)
	binary.LittleEndian.PutUint32(hdr[8:], MaxFrameBytes)
	sc := new(WireScratch)
	if _, err := sc.ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("header with no payload accepted")
	}
	if cap(sc.buf) > 1<<16 {
		t.Fatalf("a %d-byte body grew the read buffer to %d bytes", len(hdr), cap(sc.buf))
	}
}

// FuzzWorkerScreenBody: whatever bytes arrive as a v2 body, the worker
// neither panics nor answers anything but 200 or 400, and a 200 is a
// frame that decodes to one candidate list per request item.
func FuzzWorkerScreenBody(f *testing.F) {
	inst, shards := fixture(f)
	w, err := NewWorker(shards[0])
	if err != nil {
		f.Fatal(err)
	}
	h := w.Handler()
	valid := screenFrame(f, 8, inst.Test[:1])
	f.Add(valid)
	// Every truncation boundary, verbatim and with the length prefix
	// patched to match (as TestDecodeTruncationEveryBoundary does).
	for n := 0; n < len(valid); n++ {
		cut := append([]byte(nil), valid[:n]...)
		f.Add(cut)
		if n >= frameHeaderLen {
			patched := append([]byte(nil), cut...)
			binary.LittleEndian.PutUint32(patched[8:], uint32(n-frameHeaderLen))
			f.Add(patched)
		}
	}
	// nItems·hidden overflows: past uint64 bytes, and exactly 2^32.
	for _, dim := range []uint32{math.MaxUint32, 1 << 16} {
		over := append([]byte(nil), valid[:frameHeaderLen]...)
		over = appendU32(appendU32(appendU32(over, 8), dim), dim)
		binary.LittleEndian.PutUint32(over[8:], 12)
		f.Add(over)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/shard/screen", bytes.NewReader(data))
		req.Header.Set("Content-Type", ContentTypeScreenV2)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code == http.StatusBadRequest {
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body)
		}
		_, batch, err := DecodeScreenRequest(data, new(WireScratch))
		if err != nil {
			t.Fatalf("200 for a frame that does not decode: %v", err)
		}
		if sr := decodeReply(t, rec.Body.Bytes()); len(sr.Items) != len(batch) {
			t.Fatalf("%d items in reply, %d in request", len(sr.Items), len(batch))
		}
	})
}

// TestWorker400IsAnRPCFailure: a worker's 400 to a genuinely bad
// request (feature-length mismatch) is an ordinary failed attempt —
// one per replica, counted in shard_rpc_errors, never repeated in
// another codec — and leaves the replicas serving well-formed traffic.
func TestWorker400IsAnRPCFailure(t *testing.T) {
	testkit.NoLeaks(t)
	inst, shards := fixture(t)
	var mu sync.Mutex
	posts := map[int][]string{} // replica → Content-Type of each screen POST
	urls, _ := startWorkers(t, shards[:1], 2, func(_, rep int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/v1/shard/screen" {
				mu.Lock()
				posts[rep] = append(posts[rep], req.Header.Get("Content-Type"))
				mu.Unlock()
			}
			h.ServeHTTP(rw, req)
		})
	})
	r := dialT(t, RouterConfig{ShardMap: urls})

	rpcBefore, errBefore := mShardRPCTotal.Value(), mShardRPCErrors.Value()
	bad := [][]float32{make([]float32, fixHidden+1)}
	if _, _, err := r.ClassifyBatchPartial(context.Background(), bad, 8, 3); err == nil {
		t.Fatal("wrong-geometry batch unexpectedly succeeded")
	}
	for rep := 0; rep < 2; rep++ {
		if got := posts[rep]; len(got) != 1 || got[0] != ContentTypeScreenV2 {
			t.Fatalf("replica %d saw screen POSTs %q, want exactly one %q", rep, got, ContentTypeScreenV2)
		}
	}
	if got := mShardRPCTotal.Value() - rpcBefore; got != 2 {
		t.Fatalf("shard_rpc_total advanced by %d, want 2", got)
	}
	if got := mShardRPCErrors.Value() - errBefore; got != 2 {
		t.Fatalf("shard_rpc_errors advanced by %d, want 2", got)
	}
	if _, _, err := r.ClassifyBatchPartial(context.Background(), inst.Test[:1], 8, 3); err != nil {
		t.Fatalf("well-formed query after the 400s: %v", err)
	}
}

// TestModelVersionConcurrentWithQueries hammers the version readers
// while binary-codec queries recycle decode scratch. Before the fix,
// rpcOnce stored a pointer INTO pooled WireScratch memory, so the
// next decode into a recycled scratch rewrote the string under
// distinctVersions — a data race this test trips under -race.
func TestModelVersionConcurrentWithQueries(t *testing.T) {
	testkit.NoLeaks(t)
	inst, shards := fixture(t)
	urls, _ := startWorkers(t, shards, 1, nil)
	r := dialT(t, RouterConfig{ShardMap: urls, Timeout: 5 * time.Second})
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.ModelVersion()
			_ = r.VersionSkew()
		}
	}()
	for q := 0; q < 20; q++ {
		if _, _, err := r.ClassifyBatchPartial(ctx, inst.Test[:2], 24, 5); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if v := r.ModelVersion(); v != "vtest" {
		t.Fatalf("version = %q, want vtest", v)
	}
}

// --- keep-alive regression (the satellite leak fix) ---

// TestKeepAliveConnectionReuse pins the drain-to-EOF rule: Dial, a
// series of sequential queries, and every refusal the screen endpoint
// can answer (415 after draining the foreign body, 400 after a bad
// frame) must ride ONE TCP connection. A body or reply left unread
// makes the transport open a fresh connection per RPC.
func TestKeepAliveConnectionReuse(t *testing.T) {
	testkit.NoLeaks(t)
	_, shards := fixture(t)
	w, err := NewWorker(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(w.Handler())
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	r := dialT(t, RouterConfig{
		ShardMap: [][]string{{srv.URL}},
		Client:   client,
		Timeout:  5 * time.Second,
	})
	batch := [][]float32{make([]float32, fixHidden)}
	for q := 0; q < 8; q++ {
		if _, _, err := r.ClassifyBatchPartial(context.Background(), batch, 8, 3); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("%d connections for Dial + 8 sequential queries, want 1 (body not drained to EOF?)", n)
	}
	for _, c := range screenCases(t, batch) {
		if status, _, _ := postScreen(t, client, srv.URL, c); status != c.want {
			t.Fatalf("%s: status = %d, want %d", c.name, status, c.want)
		}
		if n := conns.Load(); n != 1 {
			t.Fatalf("%s: %d connections, want 1 (refusal tore the connection down)", c.name, n)
		}
	}
}

// --- router fast-path allocation guard ---

// TestRouterFastPathAllocs bounds the router's per-item garbage on
// the all-healthy fast path. The absolute number includes
// net/http client machinery (connection pool bookkeeping, header
// maps), so the guard is on the MARGINAL allocations per extra batch
// item — the part the merge loop and codec own. The former per-item
// `ck := make(...)` and JSON decode pushed this past 40.
func TestRouterFastPathAllocs(t *testing.T) {
	testkit.NoLeaks(t)
	inst, shards := fixture(t)
	urls, _ := startWorkers(t, shards, 1, nil)
	r := dialT(t, RouterConfig{ShardMap: urls, Timeout: 5 * time.Second})
	ctx := context.Background()

	run := func(batch [][]float32) float64 {
		t.Helper()
		// Warm: size every pool (encode buffers, decode scratch, order
		// slices, HTTP connections) before measuring.
		for i := 0; i < 3; i++ {
			if _, _, err := r.ClassifyBatchPartial(ctx, batch, 24, 5); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if _, _, err := r.ClassifyBatchPartial(ctx, batch, 24, 5); err != nil {
				t.Fatal(err)
			}
		})
	}

	small := run(inst.Test[:1])
	big := run(repeatBatch(inst.Test, 17))
	perItem := (big - small) / 16
	if perItem > 16 {
		t.Fatalf("router fast path allocates %.1f/extra-item (batch1=%.0f batch17=%.0f), want ≤ 16", perItem, small, big)
	}
	// Coarse absolute ceiling so fixed-cost regressions (per-RPC JSON
	// bodies, per-query slices) cannot hide behind the marginal guard.
	if small > 450 {
		t.Fatalf("router fast path allocates %.0f/op for a 1-item batch across %d shards, want ≤ 450", small, fixShards)
	}
}

// repeatBatch tiles src rows until the batch has n items.
func repeatBatch(src [][]float32, n int) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		out[i] = src[i%len(src)]
	}
	return out
}

// BenchmarkRouterFastPath measures the full scatter-gather round trip
// against in-process httptest workers — wire codec, HTTP, merge.
// Run with -benchmem to watch the allocs/op guard's raw number.
func BenchmarkRouterFastPath(b *testing.B) {
	inst, shards := fixture(b)
	urls := make([][]string, len(shards))
	for i, sh := range shards {
		w, err := NewWorker(sh)
		if err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(w.Handler())
		b.Cleanup(srv.Close)
		urls[i] = []string{srv.URL}
	}
	r, err := Dial(context.Background(), RouterConfig{ShardMap: urls, HealthInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(r.Close)
	batch := repeatBatch(inst.Test, 8)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.ClassifyBatchPartial(ctx, batch, 24, 5); err != nil {
			b.Fatal(err)
		}
	}
}
