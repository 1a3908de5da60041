package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"enmc/internal/core"
	"enmc/internal/decode"
	"enmc/internal/quant"
	"enmc/internal/telemetry"
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
// client error (400, 404, 409, 410, 429) or a 200 stream that ends in a
// done frame — never a panic or a 5xx.
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
		`{"session":"nope"}`,
		`{"session":"nope","close":true}`,
		`{"close":true}`,
		`{"h0":`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	s, svc, _ := decodeServer(f, decode.Config{})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decode", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusConflict, http.StatusGone, http.StatusTooManyRequests:
			return
		default:
			t.Fatalf("%q: status %d %s", body, rec.Code, rec.Body)
		}
		out := rec.Body.String()
		i := strings.LastIndex(out, `{"session"`)
		var done DecodeDone
		if i < 0 || json.Unmarshal([]byte(strings.TrimSpace(out[i:])), &done) != nil || !done.Done {
			t.Fatalf("%q: 200 without a done frame: %s", body, out)
		}
		// A stream cut short by max_tokens leaves its session open:
		// close it, so the inputs that follow are not refused 429.
		_ = svc.Close(done.Session)
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
// frame per token, a terminal done object, tokens consistent, and the
// finished session's slot freed immediately.
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
		if f.T != i || f.Token != done.Tokens[i] || f.Session != done.Session {
			t.Fatalf("frame %d inconsistent: %+v vs tokens %v", i, f, done.Tokens)
		}
		if f.M <= 0 {
			t.Fatalf("frame %d has non-positive m: %+v", i, f)
		}
	}
	if done.CacheHitRate <= 0 {
		t.Fatalf("expected a warm candidate cache, hit rate %v", done.CacheHitRate)
	}
	// Finished sessions are auto-closed: continuing must 404.
	resp = postDecode(t, ts, DecodeRequest{Session: done.Session, Stream: "ndjson"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("continue after finish: status = %d, want 404", resp.StatusCode)
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
	// Continue the same session to the end over ndjson.
	resp2 := postDecode(t, ts, DecodeRequest{Session: done.Session, Stream: "ndjson"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("continue status = %d", resp2.StatusCode)
	}
	_, done2 := readNDJSON(t, resp2)
	if !done2.Finished || done2.Steps != 12 {
		t.Fatalf("continued done = %+v", done2)
	}
}

// TestDecodeSessionLimit: MaxSessions exhausted answers 429 with a
// Retry-After hint, and closing a session frees the slot.
func TestDecodeSessionLimit(t *testing.T) {
	testkit.NoLeaks(t)
	_, ts, inst := decodeFixture(t, decode.Config{MaxSessions: 1})
	resp := postDecode(t, ts, DecodeRequest{H0: inst.Test[0], MaxTokens: 1, Stream: "ndjson"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first open: status = %d", resp.StatusCode)
	}
	_, done := readNDJSON(t, resp)

	resp = postDecode(t, ts, DecodeRequest{H0: inst.Test[1], Stream: "ndjson"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second open: status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	resp = postDecode(t, ts, DecodeRequest{Session: done.Session, Close: true})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status = %d", resp.StatusCode)
	}
	var closed DecodeDone
	if err := json.NewDecoder(resp.Body).Decode(&closed); err != nil {
		t.Fatal(err)
	}
	if !closed.Closed {
		t.Fatalf("close response = %+v", closed)
	}
	resp = postDecode(t, ts, DecodeRequest{H0: inst.Test[2], MaxTokens: 1, Stream: "ndjson"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open after close: status = %d", resp.StatusCode)
	}
	readNDJSON(t, resp)
}

// TestDecodeErrorStatuses covers the non-streaming failure mappings:
// no service → 501, unknown session → 404, bad mode → 400, draining →
// 503 for new sessions.
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
	resp = postDecode(t, ts, DecodeRequest{Session: "nope", Stream: "ndjson"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: status = %d, want 404", resp.StatusCode)
	}
	resp = postDecode(t, ts, DecodeRequest{Session: "nope", Close: true})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("close unknown: status = %d, want 404", resp.StatusCode)
	}
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

// failingScorer answers its first ok steps with class 0, then fails
// every step.
type failingScorer struct{ ok int }

func (f *failingScorer) ScoreStep(context.Context, []float32, int, int) (decode.StepScore, error) {
	if f.ok == 0 {
		return decode.StepScore{}, errors.New("scorer: shard unreachable")
	}
	f.ok--
	return decode.StepScore{Classes: []int{0}, LogProbs: []float64{-1}, M: 1}, nil
}

func (f *failingScorer) Close() {}

// TestDecodeScorerFault: a scorer that fails before the first frame
// answers 503 "backend" with Retry-After, frees the session it opened
// and adds one fault to /v1/decode's SLO window; one that fails after
// two frames keeps its 200, reports the error in the done frame, and
// is still counted a fault.
func TestDecodeScorerFault(t *testing.T) {
	testkit.NoLeaks(t)
	for _, ok := range []int{0, 2} {
		inst := workload.Generate(workload.Spec{Name: "decode-fault", Categories: 16, Hidden: 8, LatentRank: 4, ZipfS: 1},
			workload.GenOptions{Seed: 1, Train: 8, Valid: 2, Test: 2})
		svc := decode.NewService(decode.Config{TopM: 4}, workload.NewDecoderFor(inst.Classifier, 7, 6),
			func() decode.Scorer { return &failingScorer{ok: ok} })
		s, ts := newObsServer(t, Config{})
		t.Cleanup(svc.Shutdown)
		s.SetDecode(svc)
		faults := mRequests[telemetry.Fault].Value()

		resp := postDecode(t, ts, DecodeRequest{H0: inst.Test[0], Stream: "ndjson"})
		if ok == 0 {
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
				t.Fatalf("fault before the first frame: status %d, Retry-After %q, want 503 with one",
					resp.StatusCode, resp.Header.Get("Retry-After"))
			}
			if n := svc.Active(); n != 0 {
				t.Errorf("%d sessions left open", n)
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
