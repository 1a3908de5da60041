package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enmc/internal/core"
	"enmc/internal/quant"
	"enmc/internal/testkit"
	"enmc/internal/workload"
)

// TestSwappableHotSwapUnderTraffic: sustained concurrent traffic
// through the full HTTP stack while the model is swapped mid-run —
// every request must succeed, and each response names the version
// that actually served it (only v1 before the swap completes, only
// v2 after, never anything else).
func TestSwappableHotSwapUnderTraffic(t *testing.T) {
	testkit.NoLeaks(t)
	old := &fakeBackend{hidden: 8, categories: 32}
	sw, err := NewSwappable(old, "v1")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sw, Config{MaxBatch: 8, QueueCap: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const workers, perWorker = 8, 40
	var swapped atomic.Bool
	var failures, staleAfterSwap atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := postClassify(ts, classifyBody(t, 8))
				if err != nil {
					failures.Add(1)
					return
				}
				var out ClassifyResponse
				derr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if derr != nil || resp.StatusCode != http.StatusOK {
					failures.Add(1)
					continue
				}
				switch out.ModelVersion {
				case "v1", "v2":
				default:
					failures.Add(1)
				}
				// A request issued strictly after the swap returned
				// must never be served by the old model.
				if swapped.Load() && out.ModelVersion == "v1" {
					staleAfterSwap.Add(1)
				}
			}
		}()
	}

	time.Sleep(5 * time.Millisecond)
	next := &fakeBackend{hidden: 8, categories: 32}
	prev, err := sw.Swap(next, "v2", nil)
	if err != nil {
		t.Fatal(err)
	}
	swapped.Store(true)
	if prev != "v1" {
		t.Fatalf("prev = %q, want v1", prev)
	}
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d failed requests during hot swap", n)
	}
	// Requests admitted before the swap may legitimately finish on v1
	// after it, but only for as long as in-flight batches drain; a
	// micro-batch lives only until a flush worker frees, so anything
	// admitted post-swap is served by v2. Batches pinned pre-swap
	// overlap the swapped flag only within one flush, so allow that
	// window.
	if sw.ModelVersion() != "v2" {
		t.Fatalf("active version %q, want v2", sw.ModelVersion())
	}
	if next.calls.Load() == 0 {
		t.Fatal("new backend never served")
	}
}

// TestSwappableRetireAfterDrain: the old version must be retired
// exactly once, and only after its last in-flight batch finishes —
// never while a batch that pinned it is still running.
func TestSwappableRetireAfterDrain(t *testing.T) {
	gated := &fakeBackend{hidden: 4, categories: 8, gate: make(chan struct{})}
	sw, err := NewSwappable(gated, "v1")
	if err != nil {
		t.Fatal(err)
	}

	// Park a batch inside the old backend.
	batchDone := make(chan error, 1)
	go func() {
		_, err := sw.ClassifyBatch(context.Background(), [][]float32{make([]float32, 4)}, 1, 1)
		batchDone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for gated.calls.Load() == 0 {
		if !time.Now().Before(deadline) {
			t.Fatal("batch never reached backend")
		}
		time.Sleep(time.Millisecond)
	}

	var retired atomic.Int64
	retiredVersion := make(chan string, 2)
	prev, err := sw.Swap(&fakeBackend{hidden: 4, categories: 8}, "v2", func(v string) {
		retired.Add(1)
		retiredVersion <- v
	})
	if err != nil {
		t.Fatal(err)
	}
	if prev != "v1" {
		t.Fatalf("prev = %q", prev)
	}

	// The gated batch still holds a reference: retire must not fire.
	time.Sleep(20 * time.Millisecond)
	if retired.Load() != 0 {
		t.Fatal("retired while a batch was in flight on the old version")
	}

	close(gated.gate)
	if err := <-batchDone; err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-retiredVersion:
		if v != "v1" {
			t.Fatalf("retired %q, want v1", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("retire never fired after drain")
	}
	if retired.Load() != 1 {
		t.Fatalf("retire fired %d times", retired.Load())
	}
}

// TestSwapShapeMismatch: a candidate with a different shape must be
// rejected and the old version must keep serving.
func TestSwapShapeMismatch(t *testing.T) {
	sw, err := NewSwappable(&fakeBackend{hidden: 8, categories: 32}, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Swap(&fakeBackend{hidden: 16, categories: 32}, "v2", nil); err == nil {
		t.Fatal("hidden-dim mismatch accepted")
	}
	if _, err := sw.Swap(&fakeBackend{hidden: 8, categories: 64}, "v2", nil); err == nil {
		t.Fatal("category-count mismatch accepted")
	}
	if _, err := sw.Swap(nil, "v2", nil); err == nil {
		t.Fatal("nil backend accepted")
	}
	if sw.ModelVersion() != "v1" {
		t.Fatalf("version changed to %q after rejected swaps", sw.ModelVersion())
	}
	if _, err := sw.ClassifyBatch(context.Background(), [][]float32{make([]float32, 8)}, 1, 1); err != nil {
		t.Fatalf("old version stopped serving: %v", err)
	}
}

// TestModelEndpoint: GET /v1/model reports the active version and
// shapes; non-GET is rejected.
func TestModelEndpoint(t *testing.T) {
	testkit.NoLeaks(t)
	sw, err := NewSwappable(&fakeBackend{hidden: 8, categories: 32}, "v7")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out ModelStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Version != "v7" || out.Categories != 32 || out.Hidden != 8 || out.Draining {
		t.Fatalf("status = %+v", out)
	}

	post, err := ts.Client().Post(ts.URL+"/v1/model", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/model: %d", post.StatusCode)
	}
}

// TestReloadEndpoint covers the reload trigger surface: 501 with no
// registry wired, 200 with the new active version on success, 409
// with the old version still serving on a rejected candidate.
func TestReloadEndpoint(t *testing.T) {
	testkit.NoLeaks(t)
	sw, err := NewSwappable(&fakeBackend{hidden: 8, categories: 32}, "v1")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(sw, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body []byte) (*http.Response, error) {
		return ts.Client().Post(ts.URL+"/v1/model/reload", "application/json", bytes.NewReader(body))
	}

	// No reloader installed → 501.
	resp, err := post(nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("no reloader: status = %d, want 501", resp.StatusCode)
	}

	var gotVersion string
	s.SetReloader(func(_ context.Context, version string) (string, error) {
		gotVersion = version
		if version == "bad" {
			return "v1", ErrOverloaded // any error: candidate rejected
		}
		if version == "" {
			version = "v2"
		}
		if _, err := sw.Swap(&fakeBackend{hidden: 8, categories: 32}, version, nil); err != nil {
			return "", err
		}
		return version, nil
	})

	// Empty body → newest version.
	resp, err = post(nil)
	if err != nil {
		t.Fatal(err)
	}
	var rr ReloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rr.Version != "v2" || gotVersion != "" {
		t.Fatalf("reload: status=%d version=%q requested=%q", resp.StatusCode, rr.Version, gotVersion)
	}

	// Pinned version in the body.
	resp, err = post([]byte(`{"version":"v9"}`))
	if err != nil {
		t.Fatal(err)
	}
	rr = ReloadResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rr.Version != "v9" || gotVersion != "v9" {
		t.Fatalf("pinned reload: status=%d version=%q requested=%q", resp.StatusCode, rr.Version, gotVersion)
	}

	// Rejected candidate → 409, old version still serving.
	resp, err = post([]byte(`{"version":"bad"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("rejected reload: status = %d, want 409", resp.StatusCode)
	}
	if sw.ModelVersion() != "v9" {
		t.Fatalf("active version %q after rejected reload, want v9", sw.ModelVersion())
	}

	// GET is not allowed.
	get, err := ts.Client().Get(ts.URL + "/v1/model/reload")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload: %d", get.StatusCode)
	}
}

// skewBackend is a backend mid-rollout: it reports two model versions
// at once, the way cluster.Router does while its shards disagree.
type skewBackend struct{ fakeBackend }

func (*skewBackend) ModelVersion() string { return "v1,v2" }
func (*skewBackend) VersionSkew() bool    { return true }

// TestSkewSurfacedOverHTTP: a backend that reports version skew must
// show it — version_skew true and the joined model_version — on every
// classify response and on /v1/model, bare or behind a Swappable that
// carries no version label of its own.
func TestSkewSurfacedOverHTTP(t *testing.T) {
	testkit.NoLeaks(t)
	bare := &skewBackend{fakeBackend{hidden: 8, categories: 32}}
	wrapped, err := NewSwappable(&skewBackend{fakeBackend{hidden: 8, categories: 32}}, "")
	if err != nil {
		t.Fatal(err)
	}
	for name, backend := range map[string]Backend{"bare": bare, "swappable": wrapped} {
		t.Run(name, func(t *testing.T) {
			s, err := New(backend, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Drain()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			check := func(path string, version string, skew bool) {
				t.Helper()
				if version != "v1,v2" || !skew {
					t.Fatalf("%s: model_version=%q version_skew=%v, want \"v1,v2\" true", path, version, skew)
				}
			}
			decode := func(resp *http.Response, err error, v interface{}) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status = %d", resp.StatusCode)
				}
				if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
					t.Fatal(err)
				}
			}

			var one ClassifyResponse
			resp, err := postClassify(ts, classifyBody(t, 8))
			decode(resp, err, &one)
			check("/v1/classify", one.ModelVersion, one.VersionSkew)

			var many ClassifyBatchResponse
			body, _ := json.Marshal(ClassifyBatchRequest{Batch: [][]float32{make([]float32, 8), make([]float32, 8)}})
			resp, err = ts.Client().Post(ts.URL+"/v1/classify_batch", "application/json", bytes.NewReader(body))
			decode(resp, err, &many)
			check("/v1/classify_batch", many.ModelVersion, many.VersionSkew)

			var model ModelStatusResponse
			resp, err = ts.Client().Get(ts.URL + "/v1/model")
			decode(resp, err, &model)
			check("/v1/model", model.Version, model.VersionSkew)
		})
	}
}

// TestSwappableLocalEquivalence: a Swappable-wrapped Local backend
// must serve bit-identical predictions to the bare backend, and the
// steady-state classify path through the wrapper must not allocate.
func TestSwappableLocalEquivalence(t *testing.T) {
	inst := workload.Generate(
		workload.Spec{Name: "swap-local", Categories: 96, Hidden: 32, LatentRank: 8, ZipfS: 1},
		workload.GenOptions{Seed: 31, Train: 128, Valid: 8, Test: 8})
	scr, _, err := core.TrainScreener(inst.Classifier, inst.Train, core.Config{
		Categories: 96, Hidden: 32, Reduced: 8, Precision: quant.INT4, Seed: 3,
	}, core.TrainOptions{Epochs: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewLocal(inst.Classifier, scr)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSwappable(local, "v1")
	if err != nil {
		t.Fatal(err)
	}

	want, err := local.ClassifyBatch(context.Background(), inst.Test, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, version, err := sw.classifyBatchTagged(context.Background(), inst.Test, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if version != "v1" {
		t.Fatalf("version = %q", version)
	}
	for i := range want {
		if got[i].Class != want[i].Class {
			t.Fatalf("item %d: wrapped %d != bare %d", i, got[i].Class, want[i].Class)
		}
	}
}
