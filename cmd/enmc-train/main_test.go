package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"enmc/internal/core"
	"enmc/internal/workload"
)

// TestCheckpointResume: a registry run stopped by -stop-after leaves a
// checkpoint and publishes nothing; rerunning the same arguments
// resumes from it, publishes the version with "resumed": true, and
// removes the checkpoint.
func TestCheckpointResume(t *testing.T) {
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
		"-registry", reg, "-version", "v1", "-epochs", "6", "-checkpoint-every", "2", "-k", "8"}

	if err := run(append(args, "-stop-after", "2"), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(reg, ".ckpt", "v1", "state.json")); err != nil {
		t.Fatalf("no checkpoint after the interrupted run: %v", err)
	}
	if _, err := os.Stat(filepath.Join(reg, "v1")); !os.IsNotExist(err) {
		t.Fatalf("interrupted run published v1 (stat: %v)", err)
	}

	if err := run(args, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(reg, "v1", "manifest.json"))
	if err != nil {
		t.Fatalf("resumed run did not publish: %v", err)
	}
	var manifest struct {
		Train struct {
			Resumed bool `json:"resumed"`
		} `json:"train"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if !manifest.Train.Resumed {
		t.Fatalf("manifest does not record the resume:\n%s", raw)
	}
	if _, err := os.Stat(filepath.Join(reg, ".ckpt", "v1")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint survived publication (stat: %v)", err)
	}
}
