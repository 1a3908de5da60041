package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"enmc/internal/cluster"
	"enmc/internal/core"
	"enmc/internal/distributed"
	"enmc/internal/quant"
	"enmc/internal/registry"
	"enmc/internal/testkit"
	"enmc/internal/workload"
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

// screen posts a v2 screen frame and decodes the reply's candidates.
func screen(t *testing.T, c *http.Client, base string, frame []byte) [][]cluster.WireCandidate {
	t.Helper()
	resp, err := c.Post(base+"/v1/shard/screen", cluster.ContentTypeScreenV2, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("screen on %s: status %d, %v: %s", base, resp.StatusCode, err, body)
	}
	sc := cluster.GetWireScratch()
	defer sc.Release()
	out, err := cluster.DecodeScreenResponse(body, sc)
	if err != nil {
		t.Fatal(err)
	}
	items := make([][]cluster.WireCandidate, len(out.Items))
	for i, it := range out.Items {
		items[i] = append([]cluster.WireCandidate(nil), it...)
	}
	return items
}

// startShard runs the worker with args on a loopback port and returns
// its base URL; the test ends it with stop.
func startShard(t *testing.T, stderr io.Writer, args ...string) (addr string, sig chan os.Signal, done chan error) {
	t.Helper()
	sig = make(chan os.Signal, 1)
	done = make(chan error, 1)
	bound := make(chan string, 1)
	go func() {
		done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...),
			stderr, sig, func(api, _ string) { bound <- "http://" + api })
	}()
	select {
	case addr = <-bound:
	case err := <-done:
		t.Fatalf("run returned before listening: %v\n%s", err, stderr)
	}
	return addr, sig, done
}

// stop sends SIGTERM and requires /readyz to answer 503 before the
// listener goes, and run then to return nil.
func stop(t *testing.T, c *http.Client, addr string, sig chan<- os.Signal, done <-chan error) {
	t.Helper()
	c.CloseIdleConnections()
	sig <- syscall.SIGTERM
	for {
		resp, err := c.Get(addr + "/readyz")
		if err != nil {
			t.Fatalf("listener closed before /readyz answered 503: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
}

// sameAsWorker requires the worker at addr to answer /v1/shard/info
// and a screen of hs exactly as a cluster.Worker over ref does: the
// same slice and version, and every candidate's class and logit bits.
func sameAsWorker(t *testing.T, c *http.Client, addr string, ref distributed.Shard, hs [][]float32) {
	t.Helper()
	w, err := cluster.NewWorker(ref)
	if err != nil {
		t.Fatal(err)
	}
	refSrv := httptest.NewServer(w.Handler())
	defer refSrv.Close()

	resp, err := c.Get(addr + "/v1/shard/info")
	if err != nil {
		t.Fatal(err)
	}
	var info cluster.ShardInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := w.Info(); info != want {
		t.Fatalf("/v1/shard/info = %+v, want %+v", info, want)
	}

	frame, err := cluster.AppendScreenRequest(nil, 6, hs)
	if err != nil {
		t.Fatal(err)
	}
	got, want := screen(t, c, addr, frame), screen(t, c, refSrv.URL, frame)
	if len(got) != len(want) {
		t.Fatalf("%d items, reference %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) || len(want[i]) == 0 {
			t.Fatalf("item %d: %d candidates, reference %d", i, len(got[i]), len(want[i]))
		}
		for j, wc := range want[i] {
			if gc := got[i][j]; gc.Class != wc.Class || math.Float32bits(gc.Logit) != math.Float32bits(wc.Logit) {
				t.Fatalf("item %d candidate %d: %+v, reference %+v", i, j, gc, wc)
			}
		}
	}
}

// publishFixture publishes version v1 of a 96×32 model to a fresh
// registry root: the classifier, the screener trained on its training
// set, and its test set as the held-out probe set.
func publishFixture(t *testing.T) (root string, inst *workload.Instance, scr *core.Screener) {
	t.Helper()
	inst = workload.Demo(96, 32, 3)
	scr, _, err := core.TrainScreener(inst.Classifier, inst.Train, core.Config{
		Categories: 96, Hidden: 32, Reduced: 8, Precision: quant.INT4, Seed: 3,
	}, core.TrainOptions{Epochs: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	root = t.TempDir()
	store, err := registry.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Publish(registry.Manifest{Version: "v1"}, inst.Classifier, scr, inst.Test); err != nil {
		t.Fatal(err)
	}
	return root, inst, scr
}

// TestShardScenario: run -model-root -log-json over the published
// fixture serves screens, and its request log carries req_id; on
// Linux it logs the huge-page line. SIGTERM turns /readyz to 503
// before the listener goes, and run then returns nil. No goroutine
// outlives run.
func TestShardScenario(t *testing.T) {
	testkit.NoLeaks(t)
	root, inst, _ := publishFixture(t)
	stderr := &syncBuffer{}
	addr, sig, done := startShard(t, stderr, "-model-root", root, "-shard-index", "1", "-shard-count", "3", "-log-json")
	c := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{}}
	defer c.CloseIdleConnections()
	frame, err := cluster.AppendScreenRequest(nil, 6, inst.Valid[:4])
	if err != nil {
		t.Fatal(err)
	}
	if items := screen(t, c, addr, frame); len(items) != 4 {
		t.Fatalf("%d items screened, want 4", len(items))
	}
	if !strings.Contains(stderr.String(), `"req_id"`) {
		t.Fatalf("no JSON request log with req_id:\n%s", stderr)
	}
	if got := strings.Contains(stderr.String(), "MB on huge pages (THP "); got != (runtime.GOOS == "linux") {
		t.Fatalf("huge-page line logged: %v on %s:\n%s", got, runtime.GOOS, stderr)
	}
	stop(t, c, addr, sig, done)
}

// TestShardServesPublishedScreener: run -model-root serves its rows of
// the version's own published screener — one trained on the training
// set, not on the version's held-out probe set — and advertises the
// version: /v1/shard/info and a screen reply are Float32bits-identical
// to a worker over rows [off,end) of that screener.
func TestShardServesPublishedScreener(t *testing.T) {
	testkit.NoLeaks(t)
	root, inst, scr := publishFixture(t)
	addr, sig, done := startShard(t, &syncBuffer{}, "-model-root", root, "-shard-index", "1", "-shard-count", "3")
	ref, err := distributed.ShardOne(inst.Classifier, scr, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref.Version = "v1"
	c := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{}}
	defer c.CloseIdleConnections()
	sameAsWorker(t, c, addr, ref, inst.Valid[:4])
	stop(t, c, addr, sig, done)
}

// TestShardNeedsModelRoot: a worker never trains, so without
// -model-root it has no model: run returns an error naming the flag
// and never listens.
func TestShardNeedsModelRoot(t *testing.T) {
	testkit.NoLeaks(t)
	sig := make(chan os.Signal, 1)
	sig <- syscall.SIGTERM // a worker that did listen drains at once
	err := run([]string{"-addr", "127.0.0.1:0", "-shard-count", "3"}, &syncBuffer{}, sig,
		func(api, _ string) { t.Errorf("listened on %s without a model", api) })
	if err == nil || !strings.Contains(err.Error(), "-model-root") {
		t.Fatalf("run = %v, want an error naming -model-root", err)
	}
}
