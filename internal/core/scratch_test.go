package core

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"enmc/internal/projection"
	"enmc/internal/quant"
	"enmc/internal/tensor"
	"enmc/internal/xrand"
)

// bigScreener builds a frozen screener large enough to clear the
// shardMinRows gate, with random weights (no training — these tests
// only care about numerics, not quality).
func bigScreener(t testing.TB, l, d, k int) *Screener {
	t.Helper()
	r := xrand.New(31)
	wt := tensor.NewMatrix(l, k)
	for i := range wt.Data {
		wt.Data[i] = r.Float32()*2 - 1
	}
	bt := make([]float32, l)
	for i := range bt {
		bt[i] = r.Float32()*2 - 1
	}
	s := &Screener{
		Cfg: Config{Categories: l, Hidden: d, Reduced: k, Precision: quant.INT4, Seed: 7},
		P:   projection.New(k, d, 7),
		Wt:  wt,
		Bt:  bt,
	}
	s.Freeze()
	return s
}

func randHidden(r *xrand.RNG, d int) []float32 {
	h := make([]float32, d)
	for i := range h {
		h[i] = r.Float32()*2 - 1
	}
	return h
}

// TestScreenIntoShardedBitIdentical forces the parallel GEMV path
// (GOMAXPROCS is raised for the test — this box may have one core)
// and checks it against the serial kernel bit-for-bit.
func TestScreenIntoShardedBitIdentical(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const l, d, k = 2 * shardMinRows, 64, 16
	scr := bigScreener(t, l, d, k)
	h := randHidden(xrand.New(33), d)

	serial := GetScratch()
	serial.MaxShards = 1
	want := make([]float32, l)
	scr.ScreenInto(want, h, serial)
	serial.Release()

	sharded := GetScratch()
	defer sharded.Release()
	if got := sharded.shardCount(l); got < 2 {
		t.Fatalf("shardCount(%d) = %d, want parallel", l, got)
	}
	got := make([]float32, l)
	scr.ScreenInto(got, h, sharded)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: sharded %v != serial %v", i, got[i], want[i])
		}
	}
}

// TestSelectTopMIsSortedTopK pins the top-m contract at a serving-scale
// length: the set tensor.TopK ranks, in ascending index order, on a
// vector dense with ties.
func TestSelectTopMIsSortedTopK(t *testing.T) {
	r := xrand.New(35)
	z := make([]float32, 2*shardMinRows+123)
	for i := range z {
		z[i] = float32(r.Intn(1000)) // many ties
	}
	sc := GetScratch()
	defer sc.Release()
	for _, m := range []int{0, 1, 64, 4096, len(z) + 1} {
		want := tensor.TopK(z, m)
		sort.Ints(want)
		got := SelectCandidatesInto(z, TopM(m), sc)
		if len(got) != len(want) {
			t.Fatalf("m=%d: len %d != %d", m, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("m=%d pos %d: %d != %d", m, i, got[i], want[i])
			}
		}
	}
}

// TestWeightBytesNoFreezeSideEffect pins the fix for the reporting
// getter that used to quantize an unfrozen screener as a side effect:
// WeightBytes must leave QW nil and still report exactly the deployed
// footprint.
func TestWeightBytesNoFreezeSideEffect(t *testing.T) {
	for _, bits := range []quant.Bits{quant.INT2, quant.INT4, quant.INT8} {
		scr, err := newScreener(Config{Categories: 37, Hidden: 16, Reduced: 5, Precision: bits, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		before := scr.WeightBytes()
		if scr.QW != nil {
			t.Fatalf("%v: WeightBytes froze the screener", bits)
		}
		scr.Freeze()
		after := scr.QW.Bytes() + int64(len(scr.QW.Scales))*4 + int64(len(scr.Bt))*4 + scr.P.Bytes()
		if before != after {
			t.Fatalf("%v: WeightBytes %d != deployed %d", bits, before, after)
		}
	}
}

func approxModel(t testing.TB) (*Classifier, *Screener, []float32) {
	t.Helper()
	cls, samples := testModel(t, 512, 64, 1)
	scr, _, err := TrainScreener(cls, samples, testConfig(512, 64), TrainOptions{Epochs: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return cls, scr, samples[0]
}

// TestClassifyApproxIntoZeroAlloc is the allocation contract of the
// hot path: with a warmed scratch pinned to the serial kernels
// (MaxShards=1 — the saturated-server configuration), steady-state
// classification must not allocate at all.
func TestClassifyApproxIntoZeroAlloc(t *testing.T) {
	cls, scr, h := approxModel(t)
	sc := GetScratch()
	defer sc.Release()
	sc.MaxShards = 1
	sel := TopM(16)
	ClassifyApproxInto(cls, scr, h, sel, sc) // warm the arena
	allocs := testing.AllocsPerRun(50, func() {
		ClassifyApproxInto(cls, scr, h, sel, sc)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ClassifyApproxInto allocates %v/op, want 0", allocs)
	}
}

// TestClassifyBatchVisitCtxCancelMidTile cancels from inside a visit
// in the middle of a tile: the worker finishes that item, starts
// neither the tile's next item nor another tile, and batch telemetry
// records the items actually visited, one stage sample each.
func TestClassifyBatchVisitCtxCancelMidTile(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	cls, samples := testModel(t, 128, 32, 16)
	scr, _, err := TrainScreener(cls, samples, testConfig(128, 32), TrainOptions{Epochs: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sizeSum, sizeCount := mBatchSize.Sum(), mBatchSize.Count()
	classified, screens := mClassifyCount.Value(), mScreenNs.Count()
	var visited []int
	err = ClassifyBatchVisitCtx(ctx, cls, scr, samples, TopM(4), nil,
		func(i int, _ *Result, _ *Scratch) {
			visited = append(visited, i)
			if i == quant.BatchTile+1 {
				cancel()
			}
		})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	n := quant.BatchTile + 2
	if len(visited) != n {
		t.Fatalf("visited %v, want items 0..%d", visited, n-1)
	}
	if got := mBatchSize.Sum() - sizeSum; mBatchSize.Count() != sizeCount+1 || got != float64(n) {
		t.Fatalf("batch_size observed %v, want %d", got, n)
	}
	if mClassifyCount.Value()-classified != int64(n) || mScreenNs.Count()-screens != int64(n) {
		t.Fatal("screen_ns samples do not match classify count")
	}
}

// TestClassifyBatchVisitCtxAllocs holds the warmed driver at the
// handful of allocations it made before tiles (closures and the
// counters they share): tile buffers live in the worker's scratch.
// The workers draw that scratch from a sync.Pool, which under -race
// drops items at random, so the count only holds on a plain build.
func TestClassifyBatchVisitCtxAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratches at random under -race")
	}
	cls, samples := testModel(t, 128, 32, 16)
	scr, _, err := TrainScreener(cls, samples, testConfig(128, 32), TrainOptions{Epochs: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		_ = ClassifyBatchVisitCtx(context.Background(), cls, scr, samples, TopM(4), nil, func(int, *Result, *Scratch) {})
	}
	run() // warm the arena
	if allocs := testing.AllocsPerRun(50, run); allocs > 3 {
		t.Fatalf("warmed ClassifyBatchVisitCtx allocates %v/op, want <= 3", allocs)
	}
}

// TestClassifyBatchVisitCtxCancelled checks a pre-cancelled context
// stops the visit driver and reports the error.
func TestClassifyBatchVisitCtxCancelled(t *testing.T) {
	cls, samples := testModel(t, 128, 32, 4)
	scr, _, err := TrainScreener(cls, samples, testConfig(128, 32), TrainOptions{Epochs: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	visited := 0
	err = ClassifyBatchVisitCtx(ctx, cls, scr, samples, TopM(4), nil,
		func(int, *Result, *Scratch) { visited++ })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if visited != 0 {
		t.Fatalf("visited %d items under a dead context", visited)
	}
}

// TestClassifyBatchCtxEarlyReturn proves cancellation aborts a
// ClassifyBatchVisitCtx batch early: a pre-cancelled context returns
// at once without visiting a large batch or a single item (the finest
// abort granularity), and a cancel racing a large in-flight batch
// surfaces context.Canceled instead of running to completion.
func TestClassifyBatchCtxEarlyReturn(t *testing.T) {
	cls, samples := testModel(t, 256, 64, 16)
	scr, _, err := TrainScreener(cls, samples, testConfig(256, 64), TrainOptions{Epochs: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Large batch of shared vectors: big enough that full completion
	// takes visible time, cheap to construct.
	batch := make([][]float32, 20000)
	for i := range batch {
		batch[i] = samples[i%len(samples)]
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, b := range [][][]float32{batch, batch[:1]} {
		visited := 0
		start := time.Now()
		err := ClassifyBatchVisitCtx(ctx, cls, scr, b, TopM(8), nil,
			func(int, *Result, *Scratch) { visited++ })
		if err != context.Canceled {
			t.Fatalf("B=%d: err = %v, want context.Canceled", len(b), err)
		}
		if visited != 0 {
			t.Fatalf("B=%d: visited %d items under a dead context", len(b), visited)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("B=%d: pre-cancelled batch still took %s", len(b), elapsed)
		}
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel2()
	}()
	err = ClassifyBatchVisitCtx(ctx2, cls, scr, batch, TopM(8), nil, func(int, *Result, *Scratch) {})
	// A fast machine may legitimately finish first; only a wrong error
	// value is a failure.
	if err != nil && err != context.Canceled {
		t.Fatalf("mid-flight cancel: err = %v", err)
	}
}

// TestClassifyBatchCtxCancelledTelemetry checks a cancelled
// ClassifyBatchVisitCtx batch still records batch telemetry rather than
// vanishing from the dashboards: batch_ns and one zero-item batch_size
// sample.
func TestClassifyBatchCtxCancelledTelemetry(t *testing.T) {
	cls, samples := testModel(t, 128, 32, 4)
	scr, _, err := TrainScreener(cls, samples, testConfig(128, 32), TrainOptions{Epochs: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	batches := mBatchNs.Count()
	sizeSum, sizeCount := mBatchSize.Sum(), mBatchSize.Count()
	err = ClassifyBatchVisitCtx(ctx, cls, scr, samples, TopM(4), nil, func(int, *Result, *Scratch) {})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if mBatchNs.Count() != batches+1 {
		t.Fatal("cancelled batch did not observe batch_ns")
	}
	if mBatchSize.Count() != sizeCount+1 || mBatchSize.Sum() != sizeSum {
		t.Fatalf("cancelled batch_size observed %v, want one zero sample", mBatchSize.Sum()-sizeSum)
	}
}

// TestScratchPoolRace hammers the scratch pool from every public
// entry point at once; run under -race (make check / make ci) this
// verifies the pool recycling and the sharded kernels are data-race
// free.
func TestScratchPoolRace(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	cls, samples := testModel(t, 256, 32, 8)
	scr, _, err := TrainScreener(cls, samples, testConfig(256, 32), TrainOptions{Epochs: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sel := TopM(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				switch g % 3 {
				case 0:
					for _, h := range samples {
						ClassifyApprox(cls, scr, h, sel)
					}
				case 1:
					if err := ClassifyBatchVisitCtx(context.Background(), cls, scr, samples, sel, nil,
						func(i int, r *Result, sc *Scratch) { _ = r.Predict() }); err != nil {
						t.Error(err)
					}
				default:
					sc := GetScratch()
					for _, h := range samples {
						ClassifyApproxInto(cls, scr, h, sel, sc)
					}
					sc.Release()
				}
			}
		}(g)
	}
	wg.Wait()
}
