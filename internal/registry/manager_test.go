package registry

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"enmc/internal/core"
	"enmc/internal/metrics"
	"enmc/internal/quant"
	"enmc/internal/server"
	"enmc/internal/telemetry"
	"enmc/internal/workload"
)

// publishGeneration trains a screener on the instance and publishes
// it; epochs differentiates model quality between versions.
func publishGeneration(t *testing.T, store *Store, version, parent string, inst *workload.Instance, epochs int, seed uint64) {
	t.Helper()
	scr, _, err := core.TrainScreener(inst.Classifier, inst.Train, core.Config{
		Categories: inst.Classifier.Categories(), Hidden: inst.Classifier.Hidden(),
		Reduced: 8, Precision: quant.INT4, Seed: seed,
	}, core.TrainOptions{Epochs: epochs, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Publish(Manifest{Version: version, Parent: parent}, inst.Classifier, scr, inst.Valid); err != nil {
		t.Fatal(err)
	}
}

// publishRetrained publishes an independently trained model: a
// classifier of its own, with a healthy screener distilled from it on
// the serving model's training features. Its top-5 overlaps the
// serving model's far below 0.9, but the canary scores each model
// against its own classifier, so it passes.
func publishRetrained(t *testing.T, store *Store, version string, inst *workload.Instance, seed uint64) *core.Classifier {
	t.Helper()
	other := workload.Generate(
		workload.Spec{Name: "retrained", Categories: inst.Classifier.Categories(), Hidden: inst.Classifier.Hidden(), LatentRank: 6, ZipfS: 1},
		workload.GenOptions{Seed: seed, Train: 4, Valid: 4, Test: 4})
	other.Train, other.Valid = inst.Train, inst.Valid
	publishGeneration(t, store, version, "", other, 3, seed+1)
	return other.Classifier
}

// publishBitFlipped publishes version with the serving classifier and a
// healthy screener whose per-row scales have their sign bit flipped:
// serialized, corrupted past the header, read back and published, so
// the manifest hashes the corrupted bytes and the load passes.
func publishBitFlipped(t *testing.T, store *Store, version string, inst *workload.Instance, seed uint64) {
	t.Helper()
	scr, _, err := core.TrainScreener(inst.Classifier, inst.Train, core.Config{
		Categories: inst.Classifier.Categories(), Hidden: inst.Classifier.Hidden(),
		Reduced: 8, Precision: quant.INT4, Seed: seed,
	}, core.TrainOptions{Epochs: 3, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := scr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// The header is the magic, four uint32 shape fields, the per-tensor
	// flag, the uint64 seed and the uint32 length of the weight
	// payload. The scales follow the payload as a uint32 count and
	// little-endian float32s.
	const header = 8 + 4*4 + 1 + 8 + 4
	img := buf.Bytes()
	scales := header + int(binary.LittleEndian.Uint32(img[header-4:header])) + 4
	for i := 0; i < inst.Classifier.Categories(); i++ {
		img[scales+4*i+3] ^= 0x80
	}
	bad, err := core.ReadScreener(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Publish(Manifest{Version: version}, inst.Classifier, bad, inst.Valid); err != nil {
		t.Fatal(err)
	}
}

func managerFixture(t *testing.T) (*Store, *workload.Instance, *Manager) {
	t.Helper()
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.Generate(
		workload.Spec{Name: "mgr-test", Categories: 64, Hidden: 24, LatentRank: 6, ZipfS: 1},
		workload.GenOptions{Seed: 41, Train: 128, Valid: 16, Test: 8})
	publishGeneration(t, store, "v1", "", inst, 3, 100)
	mgr, err := NewManager(store, "", Options{RecallFloor: 0.5, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return store, inst, mgr
}

// TestManagerReloadAndCanaryAccept: a same-family candidate passes
// the canary and swaps; metrics and the Swappable version advance.
func TestManagerReloadAndCanaryAccept(t *testing.T) {
	store, inst, mgr := managerFixture(t)
	if v := mgr.Swappable().ModelVersion(); v != "v1" {
		t.Fatalf("initial version = %q", v)
	}

	baseSwaps := telemetry.Default().Counter("registry.swap_total").Value()
	publishGeneration(t, store, "v2", "v1", inst, 4, 200)
	active, err := mgr.Reload(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if active != "v2" || mgr.Swappable().ModelVersion() != "v2" {
		t.Fatalf("active = %q, swappable = %q", active, mgr.Swappable().ModelVersion())
	}
	if got := telemetry.Default().Counter("registry.swap_total").Value(); got != baseSwaps+1 {
		t.Fatalf("swap_total = %d, want %d", got, baseSwaps+1)
	}
	if seq := telemetry.Default().Gauge("registry.active_version").Value(); seq != 2 {
		t.Fatalf("active_version gauge = %v", seq)
	}

	// Reloading the active version is a no-op, not an error.
	active, err = mgr.Reload(context.Background(), "v2")
	if err != nil || active != "v2" {
		t.Fatalf("no-op reload: %q, %v", active, err)
	}
}

// TestManagerCanaryReject: a candidate whose screener is bit-flipped
// (checksums valid) is rejected, the old version keeps serving, and
// the rejection is counted.
func TestManagerCanaryReject(t *testing.T) {
	store, inst, mgr := managerFixture(t)
	baseRejects := telemetry.Default().Counter("registry.canary_rejected").Value()
	publishBitFlipped(t, store, "v2-bad", inst, 999)

	active, err := mgr.Reload(context.Background(), "v2-bad")
	var ce *CanaryError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CanaryError", err)
	}
	if ce.Recall >= ce.Want {
		t.Fatalf("recall %v not below %v", ce.Recall, ce.Want)
	}
	if got := telemetry.Default().Gauge("registry.canary_recall").Value(); got != ce.Recall {
		t.Fatalf("canary_recall gauge = %v, want the rejected recall %v", got, ce.Recall)
	}
	if active != "v1" || mgr.Swappable().ModelVersion() != "v1" {
		t.Fatalf("after rejection: active = %q, swappable = %q", active, mgr.Swappable().ModelVersion())
	}
	if got := telemetry.Default().Counter("registry.canary_rejected").Value(); got != baseRejects+1 {
		t.Fatalf("canary_rejected = %d, want %d", got, baseRejects+1)
	}
	// The rejected model must still serve nothing: a probe classifies
	// on v1's backend.
	outs, err := mgr.Swappable().ClassifyBatch(context.Background(), inst.Test[:1], 4, 1)
	if err != nil || len(outs) != 1 {
		t.Fatalf("old version stopped serving: %v", err)
	}
}

// TestManagerCanaryAcceptsRetrained: an independently trained model
// with a healthy screener disagrees with the serving model's top-5 but
// finds its own, so the canary passes it and it swaps in.
func TestManagerCanaryAcceptsRetrained(t *testing.T) {
	store, inst, mgr := managerFixture(t)
	cls := publishRetrained(t, store, "v2-retrained", inst, 999)
	overlap, err := metrics.ScreenQuality(context.Background(), inst.Classifier, inst.Valid, 5, func(h []float32) *core.Result {
		return &core.Result{Mixed: cls.Logits(h)}
	})
	if err != nil || overlap.RecallAtK >= 0.5 {
		t.Fatalf("retrained top-5 overlap with the serving model = %.3f (%v), want a model that disagrees", overlap.RecallAtK, err)
	}
	t.Logf("retrained top-5 overlap with the serving model: %.3f", overlap.RecallAtK)
	active, err := mgr.Reload(context.Background(), "v2-retrained")
	if err != nil || active != "v2-retrained" {
		t.Fatalf("retrained candidate: active = %q, err = %v", active, err)
	}
}

// cancelAfterFirstCheck is a context whose Err is nil on its first
// call and context.Canceled on every later one: a caller who hangs up
// after Reload's entry check, while the candidate loads or the canary
// runs.
type cancelAfterFirstCheck struct {
	context.Context
	calls atomic.Int32
}

func (c *cancelAfterFirstCheck) Err() error {
	if c.calls.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

// TestManagerReloadCanceledMidCanary: a reload whose context ends
// during the canary returns the context's error and swaps nothing in —
// not even a candidate the canary would pass — and it is not counted
// as a canary rejection.
func TestManagerReloadCanceledMidCanary(t *testing.T) {
	store, inst, mgr := managerFixture(t)
	publishGeneration(t, store, "v2", "v1", inst, 4, 200)
	baseRejects := telemetry.Default().Counter("registry.canary_rejected").Value()
	baseSwaps := telemetry.Default().Counter("registry.swap_total").Value()

	ctx := &cancelAfterFirstCheck{Context: context.Background()}
	active, err := mgr.Reload(ctx, "v2")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if active != "v1" || mgr.Swappable().ModelVersion() != "v1" {
		t.Fatalf("after a canceled reload: active = %q, swappable = %q", active, mgr.Swappable().ModelVersion())
	}
	if got := telemetry.Default().Counter("registry.swap_total").Value(); got != baseSwaps {
		t.Fatalf("swap_total = %d, want %d", got, baseSwaps)
	}
	if got := telemetry.Default().Counter("registry.canary_rejected").Value(); got != baseRejects {
		t.Fatalf("canary_rejected = %d, want %d", got, baseRejects)
	}
}

// TestManagerCorruptedLoadReject: a bad checksum fails the load phase
// — load_failed increments and the old version keeps serving.
func TestManagerCorruptedLoadReject(t *testing.T) {
	store, inst, mgr := managerFixture(t)
	publishGeneration(t, store, "v2", "v1", inst, 4, 300)
	path := filepath.Join(store.Dir("v2"), ScreenerFile)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/3] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	baseFailed := telemetry.Default().Counter("registry.load_failed").Value()
	active, err := mgr.Reload(context.Background(), "v2")
	if err == nil {
		t.Fatal("corrupted version swapped in")
	}
	if active != "v1" || mgr.Swappable().ModelVersion() != "v1" {
		t.Fatalf("after corrupted load: active = %q", active)
	}
	if got := telemetry.Default().Counter("registry.load_failed").Value(); got != baseFailed+1 {
		t.Fatalf("load_failed = %d, want %d", got, baseFailed+1)
	}
}

// TestManagerSwapUnderTraffic: concurrent classification through the
// Swappable while the manager swaps — zero errors, and the retire
// callback eventually fires for the old version.
func TestManagerSwapUnderTraffic(t *testing.T) {
	store, inst, mgr := managerFixture(t)
	publishGeneration(t, store, "v2", "v1", inst, 4, 400)

	baseRetired := telemetry.Default().Counter("registry.retired_total").Value()
	stop := make(chan struct{})
	var failures atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := mgr.Swappable().ClassifyBatch(context.Background(), inst.Test[:2], 4, 2); err != nil {
					failures.Add(1)
				}
			}
		}()
	}
	if _, err := mgr.Reload(context.Background(), "v2"); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d classification failures during swap", n)
	}
	if got := telemetry.Default().Counter("registry.retired_total").Value(); got != baseRetired+1 {
		t.Fatalf("retired_total = %d, want %d (old version not retired after drain)", got, baseRetired+1)
	}
}

// TestManagerTracerSpans: a reload records load/canary/swap spans on
// the registry track.
func TestManagerTracerSpans(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inst := workload.Generate(
		workload.Spec{Name: "mgr-trace", Categories: 48, Hidden: 16, LatentRank: 4, ZipfS: 1},
		workload.GenOptions{Seed: 51, Train: 96, Valid: 8, Test: 4})
	publishGeneration(t, store, "v1", "", inst, 3, 500)
	publishGeneration(t, store, "v2", "v1", inst, 4, 600)

	tr := telemetry.NewTracer()
	prev := telemetry.Global()
	telemetry.SetGlobal(tr)
	t.Cleanup(func() { telemetry.SetGlobal(prev) })
	mgr, err := NewManager(store, "v1", Options{RecallFloor: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Reload(context.Background(), "v2"); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"registry.load.v2": false, "registry.canary.v2": false, "registry.swap.v2": false}
	for _, sp := range tr.Spans() {
		if _, ok := want[sp.Name]; ok {
			if sp.TID != telemetry.TrackRegistry {
				t.Fatalf("span %s on track %d, want %d", sp.Name, sp.TID, telemetry.TrackRegistry)
			}
			want[sp.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("span %s not recorded", name)
		}
	}
}

// TestManagerBackendFor: pinning resolves the active version to the
// serving Swappable, older published versions to cached version-tagged
// backends, and unknown versions to an error — and survives a swap
// (the old active becomes a pin-loadable version).
func TestManagerBackendFor(t *testing.T) {
	store, inst, mgr := managerFixture(t)

	// Empty and active pins take the hot path.
	b, err := mgr.BackendFor("")
	if err != nil || b != server.Backend(mgr.Swappable()) {
		t.Fatalf("BackendFor(\"\") = %T, %v; want the Swappable", b, err)
	}
	b, err = mgr.BackendFor("v1")
	if err != nil || b != server.Backend(mgr.Swappable()) {
		t.Fatalf("BackendFor(active) = %T, %v; want the Swappable", b, err)
	}

	// Swap to v2; v1 is now a pinned load.
	publishGeneration(t, store, "v2", "v1", inst, 4, 200)
	if _, err := mgr.Reload(context.Background(), "v2"); err != nil {
		t.Fatal(err)
	}
	basePins := telemetry.Default().Counter("registry.pinned_loaded").Value()
	old, err := mgr.BackendFor("v1")
	if err != nil {
		t.Fatal(err)
	}
	ver, ok := old.(interface{ ModelVersion() string })
	if !ok || ver.ModelVersion() != "v1" {
		t.Fatalf("pinned backend does not report version v1 (%T)", old)
	}
	if old.Hidden() != inst.Classifier.Hidden() {
		t.Fatalf("pinned backend hidden = %d", old.Hidden())
	}
	// Cached: second resolve is the same instance, no second load.
	again, err := mgr.BackendFor("v1")
	if err != nil || again != old {
		t.Fatalf("pin cache miss: %T %v", again, err)
	}
	if got := telemetry.Default().Counter("registry.pinned_loaded").Value(); got != basePins+1 {
		t.Fatalf("pinned_loaded = %d, want %d", got, basePins+1)
	}

	// The pinned backend actually classifies.
	out, err := old.ClassifyBatch(context.Background(), [][]float32{inst.Test[0]}, 8, 3)
	if err != nil || len(out) != 1 || len(out[0].TopK) == 0 {
		t.Fatalf("pinned classify: %v %+v", err, out)
	}

	// Unknown version is a load error, not a panic or a fallback.
	if _, err := mgr.BackendFor("v9"); err == nil {
		t.Fatal("BackendFor(unknown) succeeded")
	}
}
