package main

// Hot-path performance harness: -perf times the software classify
// pipeline at the paper's Table 2 serving shapes and appends a
// report.PerfRecord to a JSON trajectory file (BENCH_<date>.json), so
// kernel regressions show up as a diffable number series rather than
// anecdotes. -baseline compares the fresh run against the last record
// of a committed file and fails the process on a >maxreg slowdown —
// the CI tripwire. The same shapes are benchmarked by
// BenchmarkScreen/BenchmarkClassifyApprox in the repo root.
//
// Records are schema 1 (benchmark governance): each shape is timed
// over -passes interleaved passes and the record stores, per metric,
// both the minimum across passes (the reported ns/op) and the
// coefficient of variation of the per-pass minima — the run's own
// noise disclosure, which the enmc-report validity gate inspects
// before admitting the record to the committed trend tables. The
// record also carries the host CPU model so the report can refuse
// cross-machine trend ratios.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"enmc/internal/core"
	"enmc/internal/projection"
	"enmc/internal/quant"
	"enmc/internal/report"
	"enmc/internal/tensor"
	"enmc/internal/xrand"
)

// perfShape is one serving workload: l categories, d hidden, k
// reduced, and a top-m candidate budget of about 2% of l (the paper's
// working point).
type perfShape struct {
	Name    string
	L, D, K int
	M       int
}

var perfShapes = []perfShape{
	{Name: "wiki-lstm-33k", L: 33278, D: 1500, K: 375, M: 666},
	{Name: "amazon-670k", L: 670091, D: 512, K: 128, M: 13401},
}

// buildPerfModel constructs a random frozen screener and classifier at
// the shape. Weights are uniform noise — the harness measures kernel
// time, not quality — but the construction is deterministic so runs
// are comparable.
func buildPerfModel(s perfShape) (*core.Classifier, *core.Screener, []float32) {
	r := xrand.New(1234)
	wt := tensor.NewMatrix(s.L, s.K)
	for i := range wt.Data {
		wt.Data[i] = r.Float32()*2 - 1
	}
	bt := make([]float32, s.L)
	for i := range bt {
		bt[i] = r.Float32()*2 - 1
	}
	scr := &core.Screener{
		Cfg: core.Config{Categories: s.L, Hidden: s.D, Reduced: s.K, Precision: quant.INT4, Seed: 7},
		P:   projection.New(s.K, s.D, 7),
		Wt:  wt,
		Bt:  bt,
	}
	scr.Freeze()

	w := tensor.NewMatrix(s.L, s.D)
	for i := range w.Data {
		w.Data[i] = r.Float32()*2 - 1
	}
	bias := make([]float32, s.L)
	for i := range bias {
		bias[i] = r.Float32()*2 - 1
	}
	cls, err := core.NewClassifier(w, bias)
	if err != nil {
		panic(err)
	}
	h := make([]float32, s.D)
	for i := range h {
		h[i] = r.Float32()*2 - 1
	}
	return cls, scr, h
}

// timeIt runs f repeatedly (after one warm-up call) until minTime has
// elapsed or maxIters runs, returning the fastest single call in ns.
// Minimum — not mean — because shared hosts suffer bursty steal time
// that inflates any averaging window unpredictably; the fastest
// observed iteration is the stable estimator of what the code costs,
// which is what a regression tripwire needs to compare across runs.
func timeIt(minTime time.Duration, maxIters int, f func()) float64 {
	f() // warm caches and scratch buffers
	start := time.Now()
	iters := 0
	best := time.Duration(1<<63 - 1)
	for time.Since(start) < minTime && iters < maxIters {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
		iters++
	}
	return float64(best.Nanoseconds())
}

// series accumulates one sample per interleaved pass for a metric and
// reports the governance pair: min across passes (the trend value)
// and the coefficient of variation of the per-pass samples (the noise
// disclosure).
type series []float64

func (s series) min() float64 {
	m := s[0]
	for _, v := range s[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func (s series) cv() float64 {
	if len(s) < 2 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	mean := sum / float64(len(s))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, v := range s {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(s))) / mean
}

func perfShapeSet(filter string) []perfShape {
	if filter == "" {
		return perfShapes
	}
	var out []perfShape
	for _, s := range perfShapes {
		for _, want := range strings.Split(filter, ",") {
			if strings.Contains(s.Name, strings.TrimSpace(want)) {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// cpuModel identifies the recording machine's processor so the report
// pipeline can refuse cross-machine trend comparisons. Linux exposes
// it in /proc/cpuinfo; elsewhere fall back to the architecture, which
// at least distinguishes an arm64 laptop from an amd64 runner.
func cpuModel() string {
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				if _, v, ok := strings.Cut(name, ":"); ok {
					return strings.TrimSpace(v)
				}
			}
		}
	}
	return "unknown-" + runtime.GOOS + "-" + runtime.GOARCH
}

// runPerf measures every selected shape over `passes` interleaved
// passes and returns the schema-1 record.
func runPerf(label, filter string, passes int) report.PerfRecord {
	if passes < 1 {
		passes = 1
	}
	rec := report.PerfRecord{
		Schema:     report.PerfSchemaVersion,
		Date:       time.Now().UTC().Format("2006-01-02"),
		Label:      label,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
	const minTime = 700 * time.Millisecond
	const maxIters = 25
	for _, s := range perfShapeSet(filter) {
		fmt.Fprintf(os.Stderr, "perf: building %s (l=%d d=%d k=%d m=%d)...\n", s.Name, s.L, s.D, s.K, s.M)
		cls, scr, h := buildPerfModel(s)
		sel := core.TopM(s.M)

		res := report.PerfResult{Shape: s.Name, L: s.L, D: s.D, K: s.K, M: s.M, Passes: passes}

		dst := make([]float32, s.L)
		sc := core.GetScratch()
		sc.MaxShards = 1
		const batchSize = 8
		batch := make([][]float32, batchSize)
		for i := range batch {
			batch[i] = h
		}
		dsts := make([][]float32, batchSize)
		for i := range dsts {
			dsts[i] = make([]float32, s.L)
		}
		var sink int
		// Several short passes over the metric set, keeping one sample
		// per pass per metric: contention storms on shared hosts outlast
		// any single timing window, so interleaving is what keeps one
		// storm from poisoning one metric while its neighbors measure
		// clean — and the spread across passes is the noise estimate the
		// validity gate audits.
		screen := make(series, 0, passes)
		classify := make(series, 0, passes)
		into := make(series, 0, passes)
		batchNs := make(series, 0, passes)
		batchScreen := make(series, 0, passes)
		for p := 0; p < passes; p++ {
			screen = append(screen, timeIt(minTime, maxIters, func() { scr.ScreenInto(dst, h, sc) }))
			classify = append(classify, timeIt(minTime, maxIters, func() { core.ClassifyApprox(cls, scr, h, sel) }))
			into = append(into, timeIt(minTime, maxIters, func() { core.ClassifyApproxInto(cls, scr, h, sel, sc) }))
			batchNs = append(batchNs, timeIt(minTime, 5, func() {
				_ = core.ClassifyBatchVisitCtx(context.Background(), cls, scr, batch, sel, nil,
					func(i int, r *core.Result, _ *core.Scratch) { sink += r.Predict() })
			}))
			batchScreen = append(batchScreen, timeIt(minTime, 5, func() { scr.ScreenBatchInto(dsts, batch, sc) }))
		}
		_ = sink
		res.ScreenNsOp = screen.min()
		res.ClassifyNsOp = classify.min()
		res.ClassifyIntoNsOp = into.min()
		res.AllocsOp = testing.AllocsPerRun(5, func() { core.ClassifyApproxInto(cls, scr, h, sel, sc) })
		sc.Release()
		res.BatchQPS = float64(batchSize) / (batchNs.min() / 1e9)
		// Bytes per nanosecond is GB/s, over the bytes the dispatched
		// kernel reads (the nibble image on AVX2, Q otherwise).
		res.ScreenStreamGBps = float64(scr.QW.StreamBytes()) / res.ScreenNsOp
		res.BatchStreamGBps = float64(scr.QW.BatchStreamBytes(batchSize)) / batchScreen.min()
		res.CV = map[string]float64{
			report.MetricScreen:       screen.cv(),
			report.MetricClassify:     classify.cv(),
			report.MetricClassifyInto: into.cv(),
			report.MetricBatch:        batchNs.cv(),
			report.MetricBatchScreen:  batchScreen.cv(),
		}

		fmt.Fprintf(os.Stderr, "perf: %-14s screen %8.2f ms %5.2f GB/s  batch-screen %8.2f ms/item %5.2f GB/s  classify %8.2f ms  into %8.2f ms  allocs %g  batch %7.1f qps  (passes %d, max cv %.1f%%)\n",
			s.Name, res.ScreenNsOp/1e6, res.ScreenStreamGBps, batchScreen.min()/batchSize/1e6, res.BatchStreamGBps,
			res.ClassifyNsOp/1e6, res.ClassifyIntoNsOp/1e6, res.AllocsOp, res.BatchQPS,
			passes, 100*maxCV(res.CV))
		rec.Results = append(rec.Results, res)
	}
	return rec
}

func maxCV(cv map[string]float64) float64 {
	var m float64
	for _, v := range cv {
		if v > m {
			m = v
		}
	}
	return m
}

// loadPerfFile reads a trajectory file (JSON array of PerfRecord).
func loadPerfFile(path string) ([]report.PerfRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []report.PerfRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// appendPerfFile appends rec to the trajectory at path, creating the
// file if needed — every harness run becomes one more dated, labeled
// entry in the committed number series rather than a replaced
// snapshot.
func appendPerfFile(path string, rec report.PerfRecord) error {
	recs, err := loadPerfFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	recs = append(recs, rec)
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// comparePerf checks rec against the baseline trajectory: any
// matching shape whose hot metrics grew by more than maxReg fails.
// The per-shape baseline is the LAST record carrying that shape, not
// the file's last record — the trajectory interleaves kernel shapes
// (-perf) and decode shapes (-decode), and a decode-only append must
// not silently disable the kernel tripwire (or vice versa). The bound is
// generous on purpose — it is a cross-machine tripwire for
// order-of-magnitude regressions (an accidental O(n log n) → O(n²), a
// lost fast path), not a microbenchmark gate; same-machine trend
// discipline lives in enmc-report, which refuses cross-machine ratios
// outright.
func comparePerf(rec report.PerfRecord, baselinePath string, maxReg float64) error {
	base, err := loadPerfFile(baselinePath)
	if err != nil {
		return err
	}
	if len(base) == 0 {
		return fmt.Errorf("%s: empty baseline", baselinePath)
	}
	byShape := map[string]report.PerfResult{}
	labelByShape := map[string]string{}
	for _, brec := range base { // file order is oldest first: last wins
		for _, r := range brec.Results {
			byShape[r.Shape] = r
			labelByShape[r.Shape] = brec.Label
		}
	}
	var failures []string
	for _, cur := range rec.Results {
		b, ok := byShape[cur.Shape]
		if !ok {
			continue
		}
		check := func(metric string, got, want float64) {
			if want <= 0 {
				return
			}
			ratio := got / want
			status := "ok"
			if ratio > maxReg {
				status = "REGRESSION"
				failures = append(failures, fmt.Sprintf("%s %s %.2fx (limit %.2fx)", cur.Shape, metric, ratio, maxReg))
			}
			fmt.Fprintf(os.Stderr, "perf: %-14s %-20s %8.2f ms vs baseline(%s) %8.2f ms  = %.2fx  %s\n",
				cur.Shape, metric, got/1e6, labelByShape[cur.Shape], want/1e6, ratio, status)
		}
		check("screen_ns_op", cur.ScreenNsOp, b.ScreenNsOp)
		check("classify_into_ns_op", cur.ClassifyIntoNsOp, b.ClassifyIntoNsOp)
		check("decode_token_ns_op", cur.DecodeTokenNsOp, b.DecodeTokenNsOp)
		check("decode_cached_token_ns_op", cur.DecodeCachedTokenNsOp, b.DecodeCachedTokenNsOp)
	}
	if len(failures) > 0 {
		return fmt.Errorf("perf regression vs %s: %s", baselinePath, strings.Join(failures, "; "))
	}
	return nil
}
