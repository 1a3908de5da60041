package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"enmc/internal/core"
	"enmc/internal/quant"
	"enmc/internal/registry"
	"enmc/internal/workload"
)

// TestRegistryRunTrainsOnce: a registry run is one training run. The
// published screener.bin is byte for byte what one core.TrainScreener
// call over the samples before the probe writes, the published probe
// is the feature tail, and a second run for the same version is
// refused.
func TestRegistryRunTrainsOnce(t *testing.T) {
	const probe, seed = 8, 1
	dir := t.TempDir()
	inst := workload.Demo(96, 32, 7)
	var cls, feats bytes.Buffer
	if _, err := inst.Classifier.WriteTo(&cls); err != nil {
		t.Fatal(err)
	}
	if _, err := core.WriteFeatures(&feats, inst.Train); err != nil {
		t.Fatal(err)
	}
	clsPath, featPath := filepath.Join(dir, "cls.bin"), filepath.Join(dir, "feats.bin")
	if err := os.WriteFile(clsPath, cls.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(featPath, feats.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := filepath.Join(dir, "models")
	args := []string{"-classifier", clsPath, "-features", featPath,
		"-registry", reg, "-version", "v1", "-epochs", "6", "-k", "8", "-probe", strconv.Itoa(probe)}
	if err := run(args, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}

	n := len(inst.Train) - probe
	scr, _, err := core.TrainScreener(inst.Classifier, inst.Train[:n], core.Config{
		Categories: 96, Hidden: 32, Reduced: 8, Precision: quant.INT4, Seed: seed,
	}, core.TrainOptions{Epochs: 6, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := scr.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(reg, "v1", registry.ScreenerFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("published screener (%d bytes) differs from one TrainScreener run over the first %d samples (%d bytes)",
			len(got), n, want.Len())
	}

	f, err := os.Open(filepath.Join(reg, "v1", registry.ProbeFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gotProbe, err := core.ReadFeatures(f)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(gotProbe, inst.Train[n:], slices.Equal[[]float32]) {
		t.Fatalf("published probe is not the last %d samples", probe)
	}

	if err := run(args, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "already published") {
		t.Fatalf("second run for v1: error %v, want already published", err)
	}
}
