package enmc

// Benchmark harness: one benchmark per table and figure of the
// paper's evaluation (regenerating the experiment and reporting its
// headline number as a custom metric), plus ablation benchmarks for
// the design choices DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// The full paper-scale regeneration lives in cmd/enmc-bench; the
// benchmarks here use moderately reduced workloads so the whole suite
// completes in minutes.

import (
	"context"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enmc/internal/compiler"
	"enmc/internal/core"
	"enmc/internal/cpuhost"
	"enmc/internal/distributed"
	"enmc/internal/dram"
	ienmc "enmc/internal/enmc"
	"enmc/internal/experiments"
	"enmc/internal/funcsim"
	"enmc/internal/host"
	"enmc/internal/image"
	"enmc/internal/isa"
	"enmc/internal/metrics"
	"enmc/internal/nmp"
	"enmc/internal/projection"
	"enmc/internal/quant"
	"enmc/internal/server"
	"enmc/internal/system"
	"enmc/internal/telemetry"
	"enmc/internal/tensor"
	"enmc/internal/workload"
	"enmc/internal/xrand"
)

func quickQuality() experiments.QualityOptions {
	return experiments.QualityOptions{
		Seed: 42, LTarget: 512, MaxHidden: 128,
		TrainSamples: 384, TestSamples: 48, Epochs: 8,
		Sentences: 6, SentenceLen: 10,
	}
}

func quickPerf() experiments.PerfOptions {
	return experiments.PerfOptions{SampleRows: 2048}
}

// parseAvgSpeedup pulls the trailing average row's ENMC column out of
// a Fig. 13 table, for metric reporting.
func lastCellFloat(t *experiments.Table) float64 {
	if len(t.Rows) == 0 {
		return 0
	}
	row := t.Rows[len(t.Rows)-1]
	cell := strings.TrimSuffix(row[len(row)-1], "x")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return 0
	}
	return v
}

func BenchmarkTable2Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2()
	}
}

func BenchmarkTable3Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table3()
	}
}

func BenchmarkTable4Baselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table4()
	}
}

func BenchmarkTable5AreaPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table5()
	}
}

func BenchmarkFig4Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig4()
	}
}

func BenchmarkFig5aScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig5a()
	}
}

func BenchmarkFig5bRoofline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig5b()
	}
}

func BenchmarkFig11QualityVsSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(quickQuality()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(quickQuality()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13Performance(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig13(quickPerf())
		if err != nil {
			b.Fatal(err)
		}
		avg = lastCellFloat(t)
	}
	b.ReportMetric(avg, "ENMC-avg-speedup-x")
}

func BenchmarkFig14Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14(quickPerf()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig15(quickPerf()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §4) ---

func ablationModel(b *testing.B) *workload.Instance {
	b.Helper()
	spec := workload.Spec{Name: "abl", Categories: 768, Hidden: 128, LatentRank: 32, ZipfS: 1.05}
	return workload.Generate(spec, workload.GenOptions{Seed: 17, Train: 384, Valid: 32, Test: 64})
}

// BenchmarkAblationLearnedVsProjected compares the trained screener
// (Algorithm 1) against the closed-form W̃ = (k/d)·W·Pᵀ seed.
func BenchmarkAblationLearnedVsProjected(b *testing.B) {
	inst := ablationModel(b)
	cfg := core.Config{Categories: 768, Hidden: 128, Reduced: 32, Precision: quant.INT4, Seed: 3}
	agreement := func(scr *core.Screener) float64 {
		var top1 []int
		var exact [][]int
		for _, h := range inst.Test {
			res := core.ClassifyApprox(inst.Classifier, scr, h, core.TopM(38))
			top1 = append(top1, res.Predict())
			exact = append(exact, []int{inst.Classifier.Predict(h)})
		}
		return metrics.TopKAgreement(top1, exact)
	}
	b.Run("learned", func(b *testing.B) {
		var agree float64
		for i := 0; i < b.N; i++ {
			scr, _, err := core.TrainScreener(inst.Classifier, inst.Train, cfg, core.TrainOptions{Epochs: 8, Seed: 4})
			if err != nil {
				b.Fatal(err)
			}
			agree = agreement(scr)
		}
		b.ReportMetric(agree, "top1-agreement")
	})
	b.Run("projected", func(b *testing.B) {
		var agree float64
		for i := 0; i < b.N; i++ {
			scr, err := core.ProjectedScreener(inst.Classifier, cfg)
			if err != nil {
				b.Fatal(err)
			}
			agree = agreement(scr)
		}
		b.ReportMetric(agree, "top1-agreement")
	})
}

// BenchmarkAblationSelection compares top-m search against threshold
// filtering at a matched average candidate budget.
func BenchmarkAblationSelection(b *testing.B) {
	inst := ablationModel(b)
	cfg := core.Config{Categories: 768, Hidden: 128, Reduced: 32, Precision: quant.INT4, Seed: 3}
	scr, _, err := core.TrainScreener(inst.Classifier, inst.Train, cfg, core.TrainOptions{Epochs: 8, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	const target = 38
	th := core.CalibrateThreshold(scr, inst.Valid, target)
	run := func(b *testing.B, sel core.Selection) {
		var agree float64
		for i := 0; i < b.N; i++ {
			hits := 0
			for _, h := range inst.Test {
				if core.ClassifyApprox(inst.Classifier, scr, h, sel).Predict() == inst.Classifier.Predict(h) {
					hits++
				}
			}
			agree = float64(hits) / float64(len(inst.Test))
		}
		b.ReportMetric(agree, "top1-agreement")
	}
	b.Run("top-m", func(b *testing.B) { run(b, core.TopM(target)) })
	b.Run("threshold", func(b *testing.B) { run(b, core.Threshold(th)) })
}

// BenchmarkAblationQuantGranularity compares per-row against
// per-tensor quantization scales.
func BenchmarkAblationQuantGranularity(b *testing.B) {
	inst := ablationModel(b)
	for _, perTensor := range []bool{false, true} {
		name := "per-row"
		if perTensor {
			name = "per-tensor"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.Config{Categories: 768, Hidden: 128, Reduced: 32, Precision: quant.INT4, PerTensor: perTensor, Seed: 3}
			var mse float64
			for i := 0; i < b.N; i++ {
				scr, _, err := core.TrainScreener(inst.Classifier, inst.Train, cfg, core.TrainOptions{Epochs: 8, Seed: 4})
				if err != nil {
					b.Fatal(err)
				}
				var total float64
				for _, h := range inst.Test {
					total += tensor.MSE(scr.Screen(h), inst.Classifier.Logits(h))
				}
				mse = total / float64(len(inst.Test))
			}
			b.ReportMetric(mse, "screen-MSE")
		})
	}
}

// BenchmarkAblationPipeline measures the dual-module overlap: the
// same screened task compiled with SyncS2E pipelining versus full
// BARRIER serialization.
func BenchmarkAblationPipeline(b *testing.B) {
	task := compiler.Task{Categories: 131072, Hidden: 512, Reduced: 128, Candidates: 8192, Batch: 4}
	for _, dual := range []bool{true, false} {
		name := "dual-module"
		if !dual {
			name = "serialized"
		}
		b.Run(name, func(b *testing.B) {
			tgt := compiler.ENMCTarget()
			tgt.DualModule = dual
			// Per-item streaming: the pipeline overlap in question is
			// the Screener of item i+1 running under the Executor of
			// item i, which only exists when the weight sweep repeats
			// per item.
			tgt.WeightReuseAcrossBatch = false
			var cycles int64
			for i := 0; i < b.N; i++ {
				prog, err := compiler.Compile(task, ienmc.Default(), tgt, task.Split(64), compiler.ModeScreened)
				if err != nil {
					b.Fatal(err)
				}
				eng, err := ienmc.New(ienmc.Default())
				if err != nil {
					b.Fatal(err)
				}
				res, err := eng.Run(prog.Ops)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "rank-cycles")
		})
	}
}

// BenchmarkAblationBatchReuse measures weight restreaming vs reuse
// across a batch (TensorDIMM's small-queue penalty).
func BenchmarkAblationBatchReuse(b *testing.B) {
	task := compiler.Task{Categories: 131072, Hidden: 512, Reduced: 128, Candidates: 2621, Batch: 4}
	for _, reuse := range []bool{true, false} {
		name := "reuse"
		if !reuse {
			name = "restream"
		}
		b.Run(name, func(b *testing.B) {
			d := nmp.TensorDIMM()
			d.Target.WeightReuseAcrossBatch = reuse
			var sec float64
			for i := 0; i < b.N; i++ {
				res, err := system.Default(d).Run(task, compiler.ModeFull)
				if err != nil {
					b.Fatal(err)
				}
				sec = res.Seconds
			}
			b.ReportMetric(sec*1e6, "offload-us")
		})
	}
}

// --- micro-benchmarks of the hot kernels ---

func BenchmarkScreenInference(b *testing.B) {
	inst := ablationModel(b)
	cfg := core.Config{Categories: 768, Hidden: 128, Reduced: 32, Precision: quant.INT4, Seed: 3}
	scr, _, err := core.TrainScreener(inst.Classifier, inst.Train, cfg, core.TrainOptions{Epochs: 2, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	h := inst.Test[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scr.Screen(h)
	}
}

// BenchmarkClassifyTelemetry guards the telemetry-overhead contract:
// with the default nil tracer the instrumented approximate-classify
// path must allocate no more than the bare pipeline (compare the
// allocs/op columns of bare vs tracer-off under -benchmem; tracer-on
// shows the opt-in span cost).
func BenchmarkClassifyTelemetry(b *testing.B) {
	inst := ablationModel(b)
	cfg := core.Config{Categories: 768, Hidden: 128, Reduced: 32, Precision: quant.INT4, Seed: 3}
	scr, _, err := core.TrainScreener(inst.Classifier, inst.Train, cfg, core.TrainOptions{Epochs: 2, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	h := inst.Test[0]
	sel := core.TopM(16)

	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ztilde := scr.Screen(h)
			cands := core.SelectCandidates(ztilde, sel)
			exact := inst.Classifier.LogitsRows(cands, h)
			for j, c := range cands {
				ztilde[c] = exact[j]
			}
		}
	})
	batch := [][]float32{h}
	visit := func(int, *core.Result, *core.Scratch) {}
	for _, tc := range []struct {
		name string
		tr   *telemetry.Tracer
	}{{"tracer-off", nil}, {"tracer-on", telemetry.NewTracer()}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = core.ClassifyBatchVisitCtx(context.Background(), inst.Classifier, scr, batch, sel, tc.tr, visit)
			}
		})
	}
}

func BenchmarkFullClassification(b *testing.B) {
	inst := ablationModel(b)
	h := inst.Test[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Classifier.Logits(h)
	}
}

func BenchmarkINT4GEMV(b *testing.B) {
	r := workload.Generate(workload.Spec{Name: "q", Categories: 1024, Hidden: 128, LatentRank: 16, ZipfS: 1},
		workload.GenOptions{Seed: 1, Train: 1, Valid: 1, Test: 1})
	qm := quant.QuantizeMatrix(r.Classifier.W, quant.INT4)
	qx := quant.QuantizeVector(r.Test[0], quant.INT4)
	dst := make([]float32, 1024)
	b.SetBytes(qm.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qm.MatVec(dst, qx)
	}
}

// --- zero-allocation hot-path benchmarks (Table 2 serving shapes) ---
//
// These run the real software pipeline (not the cycle simulator) at
// the paper's dataset shapes with randomly initialized weights —
// numerics don't matter here, only kernel time and allocation
// behavior. The "into" variants are the arena-backed zero-allocation
// path a saturated server loops on; compare the allocs/op columns
// under -benchmem. The committed end-to-end numbers come from the
// repository benchmark (bench/, BENCHMARK.md), not from these.

type perfShape struct {
	name    string
	l, d, k int // categories, hidden, reduced
	m       int // top-m candidate budget (~2% of l)
}

var perfShapes = []perfShape{
	{name: "wiki-lstm-33k", l: 33278, d: 1500, k: 375, m: 666},
	{name: "amazon-670k", l: 670091, d: 512, k: 128, m: 13401},
}

// perfScreener builds a frozen screener with uniform random weights.
func perfScreener(b *testing.B, s perfShape) *core.Screener {
	b.Helper()
	r := xrand.New(1234)
	wt := tensor.NewMatrix(s.l, s.k)
	for i := range wt.Data {
		wt.Data[i] = r.Float32()*2 - 1
	}
	bt := make([]float32, s.l)
	for i := range bt {
		bt[i] = r.Float32()*2 - 1
	}
	scr := &core.Screener{
		Cfg: core.Config{Categories: s.l, Hidden: s.d, Reduced: s.k, Precision: quant.INT4, Seed: 7},
		P:   projection.New(s.k, s.d, 7),
		Wt:  wt,
		Bt:  bt,
	}
	scr.Freeze()
	return scr
}

// perfClassifier builds a random full classifier matching the shape.
func perfClassifier(b *testing.B, s perfShape) *core.Classifier {
	b.Helper()
	r := xrand.New(4321)
	w := tensor.NewMatrix(s.l, s.d)
	for i := range w.Data {
		w.Data[i] = r.Float32()*2 - 1
	}
	bias := make([]float32, s.l)
	for i := range bias {
		bias[i] = r.Float32()*2 - 1
	}
	cls, err := core.NewClassifier(w, bias)
	if err != nil {
		b.Fatal(err)
	}
	return cls
}

func perfHidden(s perfShape) []float32 {
	r := xrand.New(99)
	h := make([]float32, s.d)
	for i := range h {
		h[i] = r.Float32()*2 - 1
	}
	return h
}

func BenchmarkScreen(b *testing.B) {
	for _, s := range perfShapes {
		b.Run(s.name, func(b *testing.B) {
			scr := perfScreener(b, s)
			h := perfHidden(s)
			b.Run("alloc", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					scr.Screen(h)
				}
			})
			b.Run("into", func(b *testing.B) {
				sc := core.GetScratch()
				defer sc.Release()
				sc.MaxShards = 1
				dst := make([]float32, s.l)
				scr.ScreenInto(dst, h, sc)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					scr.ScreenInto(dst, h, sc)
				}
			})
		})
	}
}

// BenchmarkMatVecBatch is the measurement behind quant.BatchTile: the
// batch-major screening GEMV at the amazon-670k shape (on AVX2 a 43 MB
// nibble image plus 2.7 MB of scales per stream) for a single vector,
// one tile and a batch of tiles. ns/item falls once a tile shares each
// weight stream; GB/s is the traffic actually streamed
// (BatchStreamBytes) and reads against BenchmarkStreamRead, this
// host's sequential-read roof: the single-vector kernel runs near it,
// the tile kernel trades bandwidth for four vectors per byte.
func BenchmarkMatVecBatch(b *testing.B) {
	s := perfShapes[1]
	qw := perfScreener(b, s).QW
	r := xrand.New(5)
	for _, n := range []int{1, quant.BatchTile, 16} {
		dsts, xs := screenBatchOperands(s, r, n)
		b.Run("B="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				qw.MatVecBatch(dsts, xs)
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(ns/float64(n), "ns/item")
			b.ReportMetric(float64(qw.BatchStreamBytes(n))/ns, "GB/s")
		})
	}
}

// screenBatchOperands returns n random INT4 activation vectors of the
// shape's reduced dimension and an output vector for each.
func screenBatchOperands(s perfShape, r *xrand.RNG, n int) (dsts [][]float32, xs []quant.Vector) {
	xs = make([]quant.Vector, n)
	dsts = make([][]float32, n)
	for i := range xs {
		x := make([]float32, s.k)
		for j := range x {
			x[j] = r.Float32()*2 - 1
		}
		quant.QuantizeVectorInto(&xs[i], x, quant.INT4)
		dsts[i] = make([]float32, s.l)
	}
	return dsts, xs
}

// BenchmarkMatVecBatchCold is BenchmarkMatVecBatch with the weight image
// pushed out of every cache before each timed call (an untimed read of
// 600 MB), next to the same call on a cached image: the gap between
// the two is how far the screen's time can swing with what a shared
// last-level cache happens to hold, which is what the kernels'
// software prefetch is there to close.
func BenchmarkMatVecBatchCold(b *testing.B) {
	s := perfShapes[1]
	qw := perfScreener(b, s).QW
	r := xrand.New(5)
	evict := make([]uint64, 600<<20/8)
	for i := range evict {
		evict[i] = uint64(i)
	}
	var sink uint64
	for _, n := range []int{1, quant.BatchTile} {
		dsts, xs := screenBatchOperands(s, r, n)
		for _, cold := range []bool{false, true} {
			b.Run("B="+strconv.Itoa(n)+"/cold="+strconv.FormatBool(cold), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if cold {
						b.StopTimer()
						for _, v := range evict {
							sink += v
						}
						b.StartTimer()
					}
					qw.MatVecBatch(dsts, xs)
				}
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(ns/float64(n), "ns/item")
			})
		}
	}
	_ = sink
}

// benchProcs lists the goroutine counts the bandwidth benchmarks run
// at: one, and one per CPU where there is more than one.
func benchProcs() []int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// BenchmarkStreamRead is the STREAM-style roof the screening kernels'
// GB/s is stated against: a sequential read (eight independent sums,
// so the adds do not bound it) by one goroutine and by one per CPU,
// over 256 MB — the DRAM roof on any host whose last-level cache is
// smaller — and over 48 MB, the footprint of the amazon-670k nibble
// image, which is the roof that kernel really runs under where a large
// shared L3 holds it (this host: 260 MB). One scalar stream per
// goroutine is latency-bound, so over 256 MB this is a floor for the
// DRAM roof, not the roof: BenchmarkGatherRows, which keeps eight row
// streams in flight per core, reads 1.7–2× as fast.
func BenchmarkStreamRead(b *testing.B) {
	buf := make([]uint64, 256<<20/8)
	for i := range buf {
		buf[i] = uint64(i)
	}
	var sink atomic.Uint64
	for _, mb := range []int{48, 256} {
		for _, procs := range benchProcs() {
			part := mb << 20 / 8 / procs
			b.Run("MB="+strconv.Itoa(mb)+"/procs="+strconv.Itoa(procs), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for p := 0; p < procs; p++ {
						wg.Add(1)
						go func(words []uint64) {
							defer wg.Done()
							var s0, s1, s2, s3, s4, s5, s6, s7 uint64
							for ; len(words) >= 8; words = words[8:] {
								w := words[:8:8]
								s0 += w[0]
								s1 += w[1]
								s2 += w[2]
								s3 += w[3]
								s4 += w[4]
								s5 += w[5]
								s6 += w[6]
								s7 += w[7]
							}
							sink.Add(s0 + s1 + s2 + s3 + s4 + s5 + s6 + s7)
						}(buf[p*part : (p+1)*part])
					}
					wg.Wait()
				}
				b.ReportMetric(float64(8*part*procs)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GB/s")
			})
		}
	}
}

// BenchmarkGatherRows is the exact candidate gather at the amazon-670k
// shape (m = 13 401 ascending rows of a 670 091×512 float32 W, 27.4 MB
// per item) the way serving meets it: every call takes a different row
// set. It rotates through 16 stratified random sets — 439 MB of distinct
// rows, more than this host's 260 MB L3 — so the rows come from DRAM,
// where a probe that re-gathers one fixed set (bench/'s core.exact_us,
// tensor.gather_us) reads them from L3. GB/s is stated against
// BenchmarkStreamRead at 256 MB.
func BenchmarkGatherRows(b *testing.B) {
	s := perfShapes[1]
	w := perfClassifier(b, s).W
	h := perfHidden(s)
	r := xrand.New(77)
	sets := make([][]int, 16)
	for i := range sets {
		sets[i] = make([]int, s.m)
		for j := range sets[i] {
			lo, hi := j*s.l/s.m, (j+1)*s.l/s.m
			sets[i][j] = lo + r.Intn(hi-lo)
		}
	}
	for _, procs := range benchProcs() {
		b.Run("procs="+strconv.Itoa(procs), func(b *testing.B) {
			dsts := make([][]float32, procs)
			for p := range dsts {
				dsts[p] = make([]float32, s.m)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for p := 0; p < procs; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						w.MatVecRows(dsts[p], sets[(i*procs+p)%len(sets)], h)
					}(p)
				}
				wg.Wait()
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(ns/float64(procs), "ns/item")
			b.ReportMetric(float64(procs*s.m*s.d*4)/ns, "GB/s")
		})
	}
}

func BenchmarkClassifyApprox(b *testing.B) {
	for _, s := range perfShapes {
		b.Run(s.name, func(b *testing.B) {
			scr := perfScreener(b, s)
			cls := perfClassifier(b, s)
			h := perfHidden(s)
			sel := core.TopM(s.m)
			b.Run("alloc", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					core.ClassifyApprox(cls, scr, h, sel)
				}
			})
			b.Run("into", func(b *testing.B) {
				sc := core.GetScratch()
				defer sc.Release()
				sc.MaxShards = 1
				core.ClassifyApproxInto(cls, scr, h, sel, sc)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					core.ClassifyApproxInto(cls, scr, h, sel, sc)
				}
			})
		})
	}
}

// BenchmarkServerThroughput drives the serving backend's batch path
// (the visit API over per-worker scratch arenas) at a moderate shape;
// one op is an 8-request batch with per-response top-5 extraction.
func BenchmarkServerThroughput(b *testing.B) {
	s := perfShape{name: "server-33k", l: 33278, d: 512, k: 128, m: 666}
	scr := perfScreener(b, s)
	cls := perfClassifier(b, s)
	backend, err := server.NewLocal(cls, scr)
	if err != nil {
		b.Fatal(err)
	}
	const batchSize = 8
	batch := make([][]float32, batchSize)
	r := xrand.New(77)
	for i := range batch {
		h := make([]float32, s.d)
		for j := range h {
			h[j] = r.Float32()*2 - 1
		}
		batch[i] = h
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := backend.ClassifyBatch(ctx, batch, s.m, 5); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*batchSize)/elapsed.Seconds(), "req/s")
	}
}

func BenchmarkDRAMStream(b *testing.B) {
	cfg := dram.DDR4_2400()
	cfg.Ranks = 1
	const bytes = 1 << 20
	b.SetBytes(bytes)
	for i := 0; i < b.N; i++ {
		ch, err := dram.NewChannel(cfg, true)
		if err != nil {
			b.Fatal(err)
		}
		ch.SubmitRange(0, bytes, false)
		ch.Drain()
	}
}

func BenchmarkEngineScreeningSweep(b *testing.B) {
	task := compiler.Task{Categories: 65536, Hidden: 512, Reduced: 128, Candidates: 1310, Batch: 1}
	prog, err := compiler.Compile(task, ienmc.Default(), compiler.ENMCTarget(), task.Split(64), compiler.ModeScreened)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := ienmc.New(ienmc.Default())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(prog.Ops); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCPUModel(b *testing.B) {
	cpu := cpuhost.Xeon8280()
	for i := 0; i < b.N; i++ {
		cpu.TimeScreened(267744, 512, 128, 5354, 4, quant.INT4)
	}
}

func BenchmarkISAAssemble(b *testing.B) {
	src := "INIT reg_5, 1024\nLDR wgt_i4, 0x1000\nMUL_ADD_INT4 feat_i4, wgt_i4\nFILTER psum_i4\nRETURN\n"
	for i := 0; i < b.N; i++ {
		if _, err := isa.AssembleProgram(src); err != nil {
			b.Fatal(err)
		}
	}
}

// --- extension benchmarks ---

func BenchmarkExtScaleOut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtScaleOut(quickPerf()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtHostInterface(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtHostInterface(quickPerf()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtGPUCliff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtGPU(quickPerf()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributedClassify(b *testing.B) {
	inst := ablationModel(b)
	shards, err := distributed.ShardClassifier(inst.Classifier, 4, inst.Train,
		core.Config{Categories: 768, Hidden: 128, Reduced: 32, Precision: quant.INT4, Seed: 3},
		core.TrainOptions{Epochs: 4, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	h := inst.Test[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := distributed.Classify(shards, h, 10, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHostCoexistence(b *testing.B) {
	hw := ienmc.Default()
	task := compiler.Task{Categories: 65536, Hidden: 512, Reduced: 128, Candidates: 1310, Batch: 1}
	prog, err := compiler.Compile(task, hw, compiler.ENMCTarget(), task.Split(64), compiler.ModeScreened)
	if err != nil {
		b.Fatal(err)
	}
	var lat float64
	for i := 0; i < b.N; i++ {
		res, err := host.Coexistence(hw, prog, 500)
		if err != nil {
			b.Fatal(err)
		}
		lat = res.BusyLatency
	}
	b.ReportMetric(lat, "host-read-latency-cycles")
}

func BenchmarkFunctionalMachine(b *testing.B) {
	inst := ablationModel(b)
	cfg := core.Config{Categories: 768, Hidden: 128, Reduced: 32, Precision: quant.INT4, Seed: 3}
	scr, _, err := core.TrainScreener(inst.Classifier, inst.Train, cfg, core.TrainOptions{Epochs: 2, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	img, qh, err := image.BuildFull(inst.Classifier, scr, 0, 768, inst.Test[0])
	if err != nil {
		b.Fatal(err)
	}
	hw := ienmc.Default()
	task := compiler.Task{Categories: 768, Hidden: 128, Reduced: 32, Candidates: 8, Batch: 1}
	prog, err := compiler.Compile(task, hw, compiler.ENMCTarget(),
		compiler.RankShare{Rows: 768, Candidates: 8}, compiler.ModeScreened)
	if err != nil {
		b.Fatal(err)
	}
	pre := []ienmc.Op{
		{I: isa.Init(isa.RegThreshold, uint64(math.Float32bits(1e30)))},
		{I: isa.Init(isa.RegFeatSize, uint64(math.Float32bits(qh.Scale)))},
	}
	full := append(append(pre, prog.Init...), prog.Ops...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := funcsim.New(hw, img)
		if err := m.Run(full); err != nil {
			b.Fatal(err)
		}
	}
}
