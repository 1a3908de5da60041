package registry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"enmc/internal/core"
	"enmc/internal/quant"
	"enmc/internal/workload"
)

// trained builds a small real model (classifier + trained screener +
// samples) for store tests.
func trained(t testing.TB, seed uint64) (*core.Classifier, *core.Screener, [][]float32) {
	t.Helper()
	inst := workload.Generate(
		workload.Spec{Name: "registry-test", Categories: 48, Hidden: 16, LatentRank: 4, ZipfS: 1},
		workload.GenOptions{Seed: seed, Train: 96, Valid: 4, Test: 4})
	scr, _, err := core.TrainScreener(inst.Classifier, inst.Train, core.Config{
		Categories: 48, Hidden: 16, Reduced: 6, Precision: quant.INT4, Seed: seed + 1,
	}, core.TrainOptions{Epochs: 2, Seed: seed + 2})
	if err != nil {
		t.Fatal(err)
	}
	return inst.Classifier, scr, inst.Train
}

// TestPublishLoadRoundTrip: a published version loads back with
// verified checksums and a bit-identical screener.
func TestPublishLoadRoundTrip(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cls, scr, samples := trained(t, 7)
	probe := samples[:8]

	m, err := store.Publish(Manifest{Version: "v1", Parent: ""}, cls, scr, probe)
	if err != nil {
		t.Fatal(err)
	}
	if m.Seq != 1 || m.Categories != 48 || m.Hidden != 16 || m.Reduced != 6 || m.Precision != 4 {
		t.Fatalf("manifest = %+v", m)
	}
	if len(m.Files) != 3 {
		t.Fatalf("files = %v", m.Files)
	}
	for name, fi := range m.Files {
		if len(fi.SHA256) != 64 || fi.Size == 0 {
			t.Fatalf("file %s: %+v", name, fi)
		}
	}

	if err := store.Verify("v1"); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load("v1")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Manifest.Version != "v1" || len(loaded.Probe) != 8 {
		t.Fatalf("loaded = %+v", loaded.Manifest)
	}
	// Screen outputs must be bit-identical to the published screener.
	want := scr.Screen(samples[0])
	got := loaded.Screener.Screen(samples[0])
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("screen logit %d: %v != %v", i, got[i], want[i])
		}
	}

	// Double publish is refused; invalid names are refused.
	if _, err := store.Publish(Manifest{Version: "v1"}, cls, scr, nil); err == nil {
		t.Fatal("double publish accepted")
	}
	for _, bad := range []string{"", ".hidden", "a/b", `a\b`} {
		if _, err := store.Publish(Manifest{Version: bad}, cls, scr, nil); err == nil {
			t.Fatalf("version %q accepted", bad)
		}
	}
}

// TestVersionsAndLatest: Seq assignment and ordering.
func TestVersionsAndLatest(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cls, scr, _ := trained(t, 11)
	for _, v := range []string{"alpha", "beta", "gamma"} {
		if _, err := store.Publish(Manifest{Version: v}, cls, scr, nil); err != nil {
			t.Fatal(err)
		}
	}
	vs, err := store.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 {
		t.Fatalf("versions = %d", len(vs))
	}
	for i, v := range vs {
		if v.Seq != i+1 {
			t.Fatalf("version %q seq = %d, want %d", v.Version, v.Seq, i+1)
		}
	}
	latest, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if latest.Version != "gamma" {
		t.Fatalf("latest = %q", latest.Version)
	}
}

// TestCorruptedArtifactRejected: flip one byte in a published
// artifact — Verify and Load must both reject with a checksum error,
// and truncation must be caught by the size check.
func TestCorruptedArtifactRejected(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cls, scr, samples := trained(t, 13)
	if _, err := store.Publish(Manifest{Version: "v1"}, cls, scr, samples[:4]); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(store.Dir("v1"), ScreenerFile)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte(nil), buf...)
	corrupted[len(corrupted)/2] ^= 0xff
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := store.Verify("v1"); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("Verify on corrupted artifact: %v", err)
	}
	if _, err := store.Load("v1"); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("Load on corrupted artifact: %v", err)
	}

	// Truncation trips the size check.
	if err := os.WriteFile(path, buf[:len(buf)-16], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("v1"); err == nil {
		t.Fatal("truncated artifact loaded")
	}

	// Restore: loads again.
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("v1"); err != nil {
		t.Fatal(err)
	}
}

// TestManifestTamperRejected: a manifest whose version field does not
// match its directory, or naming a missing artifact, is rejected; a
// crashed publish (.tmp-* dir) stays invisible.
func TestManifestTamperRejected(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cls, scr, _ := trained(t, 17)
	if _, err := store.Publish(Manifest{Version: "v1"}, cls, scr, nil); err != nil {
		t.Fatal(err)
	}

	// A leftover staging dir must not surface as a version.
	if err := os.MkdirAll(filepath.Join(store.Root(), ".tmp-crashed"), 0o755); err != nil {
		t.Fatal(err)
	}
	vs, err := store.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("versions = %d, staging dir leaked", len(vs))
	}

	// Manifest naming the wrong version.
	buf, err := os.ReadFile(filepath.Join(store.Dir("v1"), ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(buf), `"version": "v1"`, `"version": "v2"`, 1)
	if bad == string(buf) {
		t.Fatal("replace failed")
	}
	if err := os.WriteFile(filepath.Join(store.Dir("v1"), ManifestFile), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.ReadManifest("v1"); err == nil {
		t.Fatal("mismatched manifest version accepted")
	}
	if err := os.WriteFile(filepath.Join(store.Dir("v1"), ManifestFile), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	// Missing artifact.
	if err := os.Remove(filepath.Join(store.Dir("v1"), ClassifierFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("v1"); err == nil {
		t.Fatal("missing artifact loaded")
	}
}

// FuzzManifest writes every input over a published version's
// manifest.json and reads the version back. A manifest is accepted
// only if it names its own version and lists plain file names (no
// path can lead Verify or Load outside the version directory); an
// accepted manifest whose version loads describes the loaded shapes.
func FuzzManifest(f *testing.F) {
	store, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	cls, scr, samples := trained(f, 7)
	if _, err := store.Publish(Manifest{Version: "v1"}, cls, scr, samples[:4]); err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(store.Dir("v1"), ManifestFile)
	orig, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(orig)
	for _, seed := range []string{
		`{"version":"v2"}`,
		`{"version":"v1","precision_bits":3,"categories":-1,"files":{"classifier.bin":{"sha256":"00","size":-1}}}`,
		`{"version":"v1","files":{"../../escape":{"sha256":"","size":0}}}`,
		`{"version":"v1","files":{"":{}}}`,
		`{"version":"v1"`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := store.ReadManifest("v1")
		if err != nil {
			return
		}
		if m.Version != "v1" {
			t.Fatalf("%q: manifest of v1 names %q", raw, m.Version)
		}
		for name := range m.Files {
			if name != filepath.Base(name) || name == "." || name == ".." || name == "" {
				t.Fatalf("%q: accepted file name %q", raw, name)
			}
		}
		_ = m.PrecisionString()
		_ = store.Verify("v1")
		if _, err := store.Versions(); err != nil {
			t.Fatalf("%q: Versions: %v", raw, err)
		}
		loaded, err := store.Load("v1")
		if err != nil {
			return
		}
		if loaded.Classifier.Categories() != m.Categories || loaded.Screener.Cfg.Reduced != m.Reduced {
			t.Fatalf("%q: loaded %dx%d k=%d against manifest %+v", raw,
				loaded.Classifier.Categories(), loaded.Classifier.Hidden(), loaded.Screener.Cfg.Reduced, m)
		}
	})
}
