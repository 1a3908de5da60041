package core

import (
	"context"
	"testing"
	"time"
)

func trainedTestScreener(t testing.TB, cls *Classifier, samples [][]float32, cfg Config) *Screener {
	t.Helper()
	scr, _, err := TrainScreener(cls, samples, cfg, TrainOptions{Epochs: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return scr
}

func TestClassifyBatchCtxMatchesBatch(t *testing.T) {
	cls, samples := testModel(t, 64, 32, 24)
	scr := trainedTestScreener(t, cls, samples, testConfig(64, 32))
	want := ClassifyBatch(cls, scr, samples, TopM(6))
	got, err := ClassifyBatchCtx(context.Background(), cls, scr, samples, TopM(6), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Predict() != want[i].Predict() {
			t.Fatalf("item %d: predict %d != %d", i, got[i].Predict(), want[i].Predict())
		}
	}
}

// TestClassifyBatchCtxEarlyReturn proves cancellation aborts a batch
// between items: a pre-canceled context returns immediately with no
// results, and a cancel racing a large in-flight batch surfaces
// context.Canceled instead of running to completion.
func TestClassifyBatchCtxEarlyReturn(t *testing.T) {
	cls, samples := testModel(t, 256, 64, 16)
	scr := trainedTestScreener(t, cls, samples, testConfig(256, 64))

	// Large batch of shared vectors: big enough that full completion
	// takes visible time, cheap to construct.
	batch := make([][]float32, 20000)
	for i := range batch {
		batch[i] = samples[i%len(samples)]
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := ClassifyBatchCtx(ctx, cls, scr, batch, TopM(8), nil)
	if err != context.Canceled {
		t.Fatalf("pre-canceled: err = %v", err)
	}
	if res != nil {
		t.Fatalf("pre-canceled: got %d results", len(res))
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("pre-canceled batch still took %s", elapsed)
	}
	// A single item is the finest abort granularity: a done context
	// returns before the model is touched.
	if res, err := ClassifyBatchCtx(ctx, cls, scr, batch[:1], TopM(8), nil); err != context.Canceled || res != nil {
		t.Fatalf("pre-canceled single item: res=%v err=%v", res, err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel2()
	}()
	if _, err := ClassifyBatchCtx(ctx2, cls, scr, batch, TopM(8), nil); err != context.Canceled {
		// A fast machine may legitimately finish first; only a wrong
		// error value is a failure.
		if err != nil {
			t.Fatalf("mid-flight cancel: err = %v", err)
		}
	}
}
