package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enmc/internal/core"
	"enmc/internal/decode"
	"enmc/internal/quant"
	"enmc/internal/telemetry"
	"enmc/internal/tenant"
	"enmc/internal/testkit"
	"enmc/internal/workload"
)

// decodeFixture builds a server with a real decode service behind
// /v1/decode (small trained model, local scorer) and a fake classify
// backend — decode traffic never touches the batcher.
func decodeFixture(t *testing.T, cfg decode.Config) (*Server, *httptest.Server, *workload.Instance) {
	t.Helper()
	s, _, inst := decodeServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, inst
}

// decodeServer is decodeFixture without the listener.
func decodeServer(tb testing.TB, cfg decode.Config) (*Server, *decode.Service, *workload.Instance) {
	tb.Helper()
	inst := workload.Generate(
		workload.Spec{Name: "decode-serve", Categories: 96, Hidden: 32, LatentRank: 8, ZipfS: 1},
		workload.GenOptions{Seed: 11, Train: 128, Valid: 8, Test: 8})
	scr, _, err := core.TrainScreener(inst.Classifier, inst.Train, core.Config{
		Categories: 96, Hidden: 32, Reduced: 8, Precision: quant.INT4, Seed: 3,
	}, core.TrainOptions{Epochs: 3, Seed: 4})
	if err != nil {
		tb.Fatal(err)
	}
	if cfg.TopM == 0 {
		cfg.TopM = 12
	}
	dec := workload.NewDecoderFor(inst.Classifier, 7, 12)
	svc := decode.NewService(cfg, dec, func() decode.Scorer {
		return decode.NewLocalScorer(inst.Classifier, scr, decode.LocalScorerConfig{CacheSlots: 4 * cfg.TopM})
	})
	tb.Cleanup(svc.Shutdown)
	s, err := New(&fakeBackend{hidden: 32, categories: 96}, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Drain() })
	s.SetDecode(svc)
	return s, svc, inst
}

// FuzzDecodeBody sends every input to /v1/decode: the answer is a
// client error (400, 429) or a 200 stream that ends in a done frame —
// never a panic or a 5xx — and once it is written no session is left.
func FuzzDecodeBody(f *testing.F) {
	h0 := strings.TrimSuffix(strings.Repeat("0.25,", 32), ",")
	for _, seed := range []string{
		`{"h0":[` + h0 + `],"stream":"ndjson"}`,
		`{"h0":[` + h0 + `],"mode":"beam","width":3,"max_tokens":2}`,
		`{"h0":[` + h0 + `],"mode":"beam","width":1000000000}`,
		`{"h0":[` + h0 + `],"mode":"sample"}`,
		`{"h0":[` + h0 + `],"max_tokens":-5,"stream":"sse"}`,
		`{"h0":[1,2,3]}`,
		`{"h0":[1e39]}`,
		`{"h0":[` + h0 + `],"max_tokens":1,"stream":"ndjson"}`,
		`{"h0":[` + h0 + `],"max_tokens":1000}`,
		`{}`,
		`{"h0":`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	s, svc, _ := decodeServer(f, decode.Config{})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decode", bytes.NewReader(body)))
		if n := svc.Active(); n != 0 {
			t.Fatalf("%q: %d sessions left after the response", body, n)
		}
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusTooManyRequests:
			return
		default:
			t.Fatalf("%q: status %d %s", body, rec.Code, rec.Body)
		}
		out := rec.Body.String()
		i := strings.LastIndex(out, `{"done":true`)
		var done DecodeDone
		if i < 0 || json.Unmarshal([]byte(strings.TrimSpace(out[i:])), &done) != nil || !done.Done {
			t.Fatalf("%q: 200 without a done frame: %s", body, out)
		}
	})
}

func postDecode(t *testing.T, ts *httptest.Server, req DecodeRequest) *http.Response {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/decode", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readNDJSON parses an ndjson decode stream into token frames plus
// the terminal done object.
func readNDJSON(t *testing.T, resp *http.Response) ([]DecodeFrame, DecodeDone) {
	t.Helper()
	defer resp.Body.Close()
	var frames []DecodeFrame
	var done DecodeDone
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad ndjson line %q: %v", line, err)
		}
		if probe.Done {
			if err := json.Unmarshal(line, &done); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var f DecodeFrame
		if err := json.Unmarshal(line, &f); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !done.Done {
		t.Fatal("stream ended without a done frame")
	}
	return frames, done
}

// TestDecodeNDJSONGreedy: a full greedy session over ndjson — one
// frame per token, a terminal done object, tokens consistent.
func TestDecodeNDJSONGreedy(t *testing.T) {
	testkit.NoLeaks(t)
	s, svc, inst := decodeServer(t, decode.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	maxLen := svc.MaxLen()
	resp := postDecode(t, ts, DecodeRequest{H0: inst.Test[0], Stream: "ndjson"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type = %q", ct)
	}
	frames, done := readNDJSON(t, resp)
	if len(frames) != maxLen {
		t.Fatalf("streamed %d frames, want %d", len(frames), maxLen)
	}
	if !done.Finished || done.Steps != maxLen {
		t.Fatalf("done = %+v", done)
	}
	if len(done.Tokens) != maxLen {
		t.Fatalf("done carries %d tokens, want %d", len(done.Tokens), maxLen)
	}
	for i, f := range frames {
		if f.T != i || f.Token != done.Tokens[i] {
			t.Fatalf("frame %d inconsistent: %+v vs tokens %v", i, f, done.Tokens)
		}
		if f.M <= 0 {
			t.Fatalf("frame %d has non-positive m: %+v", i, f)
		}
	}
	if done.CacheHitRate <= 0 {
		t.Fatalf("expected a warm candidate cache, hit rate %v", done.CacheHitRate)
	}
}

// TestDecodeSSEFrames: the default stream is SSE — event-typed frames
// with data: payloads that parse back to the same schema.
func TestDecodeSSEFrames(t *testing.T) {
	testkit.NoLeaks(t)
	_, ts, inst := decodeFixture(t, decode.Config{})
	resp := postDecode(t, ts, DecodeRequest{H0: inst.Test[1], Mode: "beam", Width: 3, MaxTokens: 4})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	var events []string
	var payloads [][]byte
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			events = append(events, strings.TrimPrefix(line, "event: "))
		case strings.HasPrefix(line, "data: "):
			payloads = append(payloads, []byte(strings.TrimPrefix(line, "data: ")))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 || len(payloads) != 5 {
		t.Fatalf("got %d events / %d payloads, want 4 tokens + done", len(events), len(payloads))
	}
	for i := 0; i < 4; i++ {
		if events[i] != "token" {
			t.Fatalf("event %d = %q", i, events[i])
		}
		var f DecodeFrame
		if err := json.Unmarshal(payloads[i], &f); err != nil {
			t.Fatal(err)
		}
		if f.T != i {
			t.Fatalf("frame %d has t=%d", i, f.T)
		}
	}
	if events[4] != "done" {
		t.Fatalf("terminal event = %q", events[4])
	}
	var done DecodeDone
	if err := json.Unmarshal(payloads[4], &done); err != nil {
		t.Fatal(err)
	}
	if done.Steps != 4 || done.Finished {
		t.Fatalf("done = %+v (partial stream must not be finished)", done)
	}
}

// TestDecodeErrorStatuses covers the non-streaming failure mappings:
// no service → 501, bad mode or h0 → 400, draining → 503.
func TestDecodeErrorStatuses(t *testing.T) {
	testkit.NoLeaks(t)
	bare, err := New(&fakeBackend{hidden: 8, categories: 32}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Drain()
	tsBare := httptest.NewServer(bare.Handler())
	defer tsBare.Close()
	resp := postDecode(t, tsBare, DecodeRequest{H0: make([]float32, 8)})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("no service: status = %d, want 501", resp.StatusCode)
	}

	s, ts, inst := decodeFixture(t, decode.Config{})
	resp = postDecode(t, ts, DecodeRequest{H0: inst.Test[0], Mode: "viterbi"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad mode: status = %d, want 400", resp.StatusCode)
	}
	resp = postDecode(t, ts, DecodeRequest{H0: inst.Test[0][:4]})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad h0 dim: status = %d, want 400", resp.StatusCode)
	}

	go s.Drain()
	deadline := time.Now().Add(2 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	resp = postDecode(t, ts, DecodeRequest{H0: inst.Test[0]})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining open: status = %d, want 503", resp.StatusCode)
	}
}

// planScorer answers class 0 at every step, except where its service's
// plan says otherwise for the step's index: "fail" fails the step,
// "hold" blocks it until release is closed or the request ends, and
// "shutdown" shuts the service down under it. It counts its closes.
type planScorer struct {
	sd     *stubDecode
	step   int
	closes atomic.Int32
}

func (p *planScorer) ScoreStep(ctx context.Context, _ []float32, m, _ int) (decode.StepScore, error) {
	switch p.sd.plan[p.step] {
	case "fail":
		return decode.StepScore{}, errors.New("scorer: shard unreachable")
	case "hold":
		select {
		case <-p.sd.release:
		case <-ctx.Done():
			return decode.StepScore{}, ctx.Err()
		}
	case "shutdown":
		p.sd.svc.Shutdown()
	}
	p.step++
	return decode.StepScore{Classes: []int{0}, LogProbs: []float64{-1}, M: m}, nil
}

func (p *planScorer) Close() { p.closes.Add(1) }

// stubDecode is a decode service of 6-token sessions over planScorers,
// installed on a server; h0 is a valid start vector.
type stubDecode struct {
	svc     *decode.Service
	h0      []float32
	plan    map[int]string
	release chan struct{}

	mu      sync.Mutex
	scorers []*planScorer
}

func newStubDecode(t *testing.T, s *Server, cfg decode.Config, plan map[int]string) *stubDecode {
	t.Helper()
	inst := workload.Generate(workload.Spec{Name: "decode-stub", Categories: 16, Hidden: 8, LatentRank: 4, ZipfS: 1},
		workload.GenOptions{Seed: 1, Train: 8, Valid: 2, Test: 2})
	cfg.TopM = 4
	sd := &stubDecode{h0: inst.Test[0], plan: plan, release: make(chan struct{})}
	sd.svc = decode.NewService(cfg, workload.NewDecoderFor(inst.Classifier, 7, 6), func() decode.Scorer {
		sc := &planScorer{sd: sd}
		sd.mu.Lock()
		sd.scorers = append(sd.scorers, sc)
		sd.mu.Unlock()
		return sc
	})
	t.Cleanup(sd.svc.Shutdown)
	s.SetDecode(sd.svc)
	return sd
}

// settled waits until no session and none of ten's session slots is
// left, then requires every scorer the service made to be closed once.
func (sd *stubDecode) settled(t *testing.T, ten *tenant.Tenant) {
	t.Helper()
	waitFor(t, "the sessions to end", func() bool { return sd.svc.Active() == 0 && ten.Sessions() == 0 })
	sd.mu.Lock()
	defer sd.mu.Unlock()
	for i, sc := range sd.scorers {
		if n := sc.closes.Load(); n != 1 {
			t.Errorf("scorer %d closed %d times, want once", i, n)
		}
	}
}

// openHeld starts an ndjson stream under a plan that holds step 1 and
// reads its first frame: the stream then waits in its scorer, holding
// its session, until sd.release is closed.
func (sd *stubDecode) openHeld(t *testing.T, ts *httptest.Server, key string) *http.Response {
	t.Helper()
	resp := postJSON(t, ts, "/v1/decode", key, DecodeRequest{H0: sd.h0, Stream: "ndjson"})
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("held stream: status %d", resp.StatusCode)
	}
	if _, err := bufio.NewReader(resp.Body).ReadBytes('\n'); err != nil {
		t.Fatalf("held stream: %v", err)
	}
	return resp
}

// finish releases a held stream and reads it to its end.
func (sd *stubDecode) finish(t *testing.T, held *http.Response) {
	t.Helper()
	close(sd.release)
	defer held.Body.Close()
	if _, err := io.Copy(io.Discard, held.Body); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeExitPaths: however a /v1/decode request ends — the stream
// finished or cut short by max_tokens, the client gone mid-stream, the
// scorer failing before or after the first frame, the service shut down
// mid-stream, or the open refused at the tenant's session cap — once
// the response is over, no session and no tenant session slot is left,
// and every scorer the service made is closed exactly once.
func TestDecodeExitPaths(t *testing.T) {
	testkit.NoLeaks(t)
	stream := func(t *testing.T, ts *httptest.Server, sd *stubDecode, maxTokens int) ([]DecodeFrame, DecodeDone) {
		return readNDJSON(t, postJSON(t, ts, "/v1/decode", "k", DecodeRequest{H0: sd.h0, MaxTokens: maxTokens, Stream: "ndjson"}))
	}
	for _, tc := range []struct {
		name string
		plan map[int]string
		run  func(t *testing.T, ts *httptest.Server, sd *stubDecode)
	}{
		{"finished", nil, func(t *testing.T, ts *httptest.Server, sd *stubDecode) {
			if frames, done := stream(t, ts, sd, 0); len(frames) != 6 || !done.Finished {
				t.Fatalf("%d frames, done %+v; want 6, finished", len(frames), done)
			}
		}},
		{"max_tokens", nil, func(t *testing.T, ts *httptest.Server, sd *stubDecode) {
			if frames, done := stream(t, ts, sd, 2); len(frames) != 2 || done.Finished {
				t.Fatalf("%d frames, done %+v; want 2, not finished", len(frames), done)
			}
		}},
		{"hang-up", map[int]string{1: "hold"}, func(t *testing.T, ts *httptest.Server, sd *stubDecode) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			buf, _ := json.Marshal(DecodeRequest{H0: sd.h0, Stream: "ndjson"})
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/decode", bytes.NewReader(buf))
			req.Header.Set(tenant.HeaderAPIKey, "k")
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if _, err := bufio.NewReader(resp.Body).ReadBytes('\n'); err != nil {
				t.Fatal(err)
			}
		}},
		{"fault before the first frame", map[int]string{0: "fail"}, func(t *testing.T, ts *httptest.Server, sd *stubDecode) {
			wantRejection(t, postJSON(t, ts, "/v1/decode", "k", DecodeRequest{H0: sd.h0}), http.StatusServiceUnavailable, "backend")
		}},
		{"fault after the first frame", map[int]string{2: "fail"}, func(t *testing.T, ts *httptest.Server, sd *stubDecode) {
			if frames, done := stream(t, ts, sd, 0); len(frames) != 2 || done.Error == "" {
				t.Fatalf("%d frames, done %+v; want 2 and an error", len(frames), done)
			}
		}},
		{"shutdown mid-stream", map[int]string{2: "shutdown"}, func(t *testing.T, ts *httptest.Server, sd *stubDecode) {
			if frames, done := stream(t, ts, sd, 0); len(frames) != 3 || !done.Evicted || done.Error != "" {
				t.Fatalf("%d frames, done %+v; want 3, evicted", len(frames), done)
			}
		}},
		{"session_quota", map[int]string{1: "hold"}, func(t *testing.T, ts *httptest.Server, sd *stubDecode) {
			held := sd.openHeld(t, ts, "k")
			wantRejection(t, postJSON(t, ts, "/v1/decode", "k", DecodeRequest{H0: sd.h0}), http.StatusTooManyRequests, "session_quota")
			sd.finish(t, held)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := tenantResolver(t, tenant.File{Tenants: []tenant.Spec{{Name: "capped", Key: "k", MaxSessions: 1}}})
			s, ts := newObsServer(t, Config{Tenants: res})
			sd := newStubDecode(t, s, decode.Config{}, tc.plan)
			tc.run(t, ts, sd)
			sd.settled(t, res.Resolve("k"))
		})
	}
}

// TestDecodeSessionLimit: with the service's one session held by a
// running stream, an open answers 429 "session_limit" with a
// Retry-After hint; once the stream ends, opens succeed again.
func TestDecodeSessionLimit(t *testing.T) {
	testkit.NoLeaks(t)
	s, ts := newObsServer(t, Config{})
	sd := newStubDecode(t, s, decode.Config{MaxSessions: 1}, map[int]string{1: "hold"})
	held := sd.openHeld(t, ts, "")
	wantRejection(t, postDecode(t, ts, DecodeRequest{H0: sd.h0}), http.StatusTooManyRequests, "session_limit")
	sd.finish(t, held)
	sd.settled(t, s.Tenants().Resolve(""))
	if _, done := readNDJSON(t, postDecode(t, ts, DecodeRequest{H0: sd.h0, MaxTokens: 1, Stream: "ndjson"})); done.Steps != 1 {
		t.Fatalf("open after the held stream ended: done %+v", done)
	}
}

// TestDecodeSessionTenantQuota: a tenant's running streams count
// against its max_sessions: at the cap an open answers 429
// "session_quota" while another tenant still opens, and once the
// stream ends the tenant opens again.
func TestDecodeSessionTenantQuota(t *testing.T) {
	testkit.NoLeaks(t)
	res := tenantResolver(t, tenant.File{Tenants: []tenant.Spec{
		{Name: "capped", Key: "k", Class: "interactive", MaxSessions: 1},
		{Name: "other", Key: "o", Class: "interactive"},
	}})
	s, ts := newObsServer(t, Config{Tenants: res})
	sd := newStubDecode(t, s, decode.Config{}, map[int]string{1: "hold"})
	held := sd.openHeld(t, ts, "k")
	wantRejection(t, postJSON(t, ts, "/v1/decode", "k", DecodeRequest{H0: sd.h0}), http.StatusTooManyRequests, "session_quota")
	close(sd.release)
	readNDJSON(t, postJSON(t, ts, "/v1/decode", "o", DecodeRequest{H0: sd.h0, Stream: "ndjson"}))
	readNDJSON(t, held)
	sd.settled(t, res.Resolve("k"))
	readNDJSON(t, postJSON(t, ts, "/v1/decode", "k", DecodeRequest{H0: sd.h0, Stream: "ndjson"}))
}

// TestDecodeServiceLimitReason: a session_limit refusal holds no
// tenant slot — the refused open returns the one it took — so the
// anonymous tenant holds only the running stream's.
func TestDecodeServiceLimitReason(t *testing.T) {
	testkit.NoLeaks(t)
	s, ts := newObsServer(t, Config{})
	sd := newStubDecode(t, s, decode.Config{MaxSessions: 1}, map[int]string{1: "hold"})
	anon := s.Tenants().Resolve("")
	held := sd.openHeld(t, ts, "")
	for i := 0; i < 3; i++ {
		wantRejection(t, postDecode(t, ts, DecodeRequest{H0: sd.h0}), http.StatusTooManyRequests, "session_limit")
	}
	if n := anon.Sessions(); n != 1 {
		t.Fatalf("anonymous tenant holds %d sessions with one stream running, want 1", n)
	}
	sd.finish(t, held)
	sd.settled(t, anon)
}

// TestDecodeScorerFault: a scorer that fails before the first frame
// answers 503 "backend" with Retry-After and adds one fault to
// /v1/decode's SLO window; one that fails after two frames keeps its
// 200, reports the error in the done frame, and is still counted a
// fault.
func TestDecodeScorerFault(t *testing.T) {
	testkit.NoLeaks(t)
	for _, ok := range []int{0, 2} {
		s, ts := newObsServer(t, Config{})
		sd := newStubDecode(t, s, decode.Config{}, map[int]string{ok: "fail"})
		faults := mRequests[telemetry.Fault].Value()

		resp := postDecode(t, ts, DecodeRequest{H0: sd.h0, Stream: "ndjson"})
		if ok == 0 {
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
				t.Fatalf("fault before the first frame: status %d, Retry-After %q, want 503 with one",
					resp.StatusCode, resp.Header.Get("Retry-After"))
			}
		} else {
			frames, done := readNDJSON(t, resp)
			if resp.StatusCode != http.StatusOK || len(frames) != ok || done.Error == "" {
				t.Fatalf("fault after %d frames: status %d, %d frames, done error %q", ok, resp.StatusCode, len(frames), done.Error)
			}
		}
		var ep telemetry.EndpointSLO
		for _, e := range s.slo.Summary().Endpoints {
			if e.Endpoint == "/v1/decode" {
				ep = e
			}
		}
		if ep.Requests != 1 || ep.Errors != 1 {
			t.Errorf("ok=%d: /v1/decode window requests %d errors %d, want 1 and 1", ok, ep.Requests, ep.Errors)
		}
		if d := mRequests[telemetry.Fault].Value() - faults; d != 1 {
			t.Errorf("ok=%d: requests{outcome=fault} +%d, want +1", ok, d)
		}
	}
}
