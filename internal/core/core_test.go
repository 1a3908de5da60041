package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"enmc/internal/quant"
	"enmc/internal/tensor"
	"enmc/internal/xrand"
)

// testModel builds a small synthetic classifier with low-rank latent
// structure (W = A·B + noise) plus feature vectors drawn so that
// logits concentrate — the geometry screening exploits.
func testModel(t testing.TB, l, d, nSamples int) (*Classifier, [][]float32) {
	t.Helper()
	r := xrand.New(99)
	const rank = 8
	a := tensor.NewMatrix(l, rank)
	b := tensor.NewMatrix(rank, d)
	for i := range a.Data {
		a.Data[i] = r.NormFloat32()
	}
	for i := range b.Data {
		b.Data[i] = r.NormFloat32() / float32(math.Sqrt(rank))
	}
	w := tensor.MatMul(a, b)
	for i := range w.Data {
		w.Data[i] += 0.05 * r.NormFloat32()
	}
	bias := make([]float32, l)
	for i := range bias {
		bias[i] = 0.1 * r.NormFloat32()
	}
	cls, err := NewClassifier(w, bias)
	if err != nil {
		t.Fatal(err)
	}
	// Hidden states are peaked toward a target class's weight row plus
	// noise, mimicking real trained front-ends whose logits
	// concentrate on few categories.
	samples := make([][]float32, nSamples)
	for i := range samples {
		h := make([]float32, d)
		c := r.Intn(l)
		row := w.Row(c)
		norm := float32(tensor.Norm2(row))
		for j := range h {
			h[j] = 2.5*row[j]/norm + 0.6*r.NormFloat32()
		}
		samples[i] = h
	}
	return cls, samples
}

func testConfig(l, d int) Config {
	return Config{Categories: l, Hidden: d, Reduced: d / 4, Precision: quant.INT4, Seed: 7}
}

func TestNewClassifierValidates(t *testing.T) {
	if _, err := NewClassifier(tensor.NewMatrix(3, 2), make([]float32, 2)); err == nil {
		t.Fatal("expected bias-length error")
	}
}

func TestLogitsRowsMatchesFull(t *testing.T) {
	cls, samples := testModel(t, 50, 16, 1)
	full := cls.Logits(samples[0])
	rows := []int{0, 7, 49}
	sub := cls.LogitsRows(rows, samples[0])
	for j, r := range rows {
		if sub[j] != full[r] {
			t.Fatalf("row %d mismatch", r)
		}
	}
}

// TestLogitsRowsIndependentOfGrouping: the gather kernel takes rows in
// groups of four and finishes the rest on the scalar loop, so where a
// row falls in its list decides which of the two scores it. A row's
// logit must not depend on that — a node scoring one candidate list
// and shards scoring their slices of it (other lengths, other group
// boundaries) have to agree bit for bit.
func TestLogitsRowsIndependentOfGrouping(t *testing.T) {
	cls, samples := testModel(t, 97, 37, 1) // 37 columns: nine quads and a scalar tail
	h := samples[0]
	rows := make([]int, 0, 61)
	for r := 0; r < 97; r += 1 + r%3 {
		rows = append(rows, r)
	}
	whole := cls.LogitsRows(rows, h)
	full := cls.Logits(h)
	for cut := 0; cut <= len(rows); cut++ {
		split := append(cls.LogitsRows(rows[:cut], h), cls.LogitsRows(rows[cut:], h)...)
		for j := range whole {
			if math.Float32bits(split[j]) != math.Float32bits(whole[j]) {
				t.Fatalf("cut %d: row %d scored %v in the split lists, %v in the whole one", cut, rows[j], split[j], whole[j])
			}
			if math.Float32bits(whole[j]) != math.Float32bits(full[rows[j]]) {
				t.Fatalf("row %d: gathered %v, full classifier %v", rows[j], whole[j], full[rows[j]])
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Categories: 10, Hidden: 8, Reduced: 2, Precision: quant.INT4}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Categories: 0, Hidden: 8, Reduced: 2, Precision: quant.INT4},
		{Categories: 10, Hidden: 8, Reduced: 9, Precision: quant.INT4},
		{Categories: 10, Hidden: 8, Reduced: 2, Precision: 3},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d should fail validation", i)
		}
	}
}

func TestProjectedScreenerApproximates(t *testing.T) {
	cls, samples := testModel(t, 100, 64, 4)
	scr, err := ProjectedScreener(cls, testConfig(100, 64))
	if err != nil {
		t.Fatal(err)
	}
	// The analytic screener must be positively correlated with the
	// exact logits.
	for _, h := range samples {
		z := cls.Logits(h)
		zt := scr.ScreenFloat(h)
		if corr(z, zt) < 0.5 {
			t.Fatalf("projected screener correlation %v too low", corr(z, zt))
		}
	}
}

func TestTrainScreenerConverges(t *testing.T) {
	cls, samples := testModel(t, 100, 64, 48)
	scr, stats, err := TrainScreener(cls, samples, testConfig(100, 64), TrainOptions{Epochs: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, last := stats.EpochLoss[0], stats.EpochLoss[len(stats.EpochLoss)-1]
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
	if scr.QW == nil {
		t.Fatal("screener not frozen after training")
	}
}

func TestTrainedBeatsProjected(t *testing.T) {
	cls, samples := testModel(t, 120, 64, 64)
	cfg := testConfig(120, 64)
	trained, _, err := TrainScreener(cls, samples, cfg, TrainOptions{Epochs: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	projected, err := ProjectedScreener(cls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var trainedMSE, projectedMSE float64
	for _, h := range samples {
		z := cls.Logits(h)
		trainedMSE += tensor.MSE(trained.ScreenFloat(h), z)
		projectedMSE += tensor.MSE(projected.ScreenFloat(h), z)
	}
	if trainedMSE >= projectedMSE {
		t.Fatalf("trained MSE %v not better than projected %v", trainedMSE, projectedMSE)
	}
}

func TestTrainValidation(t *testing.T) {
	cls, samples := testModel(t, 20, 16, 4)
	if _, _, err := TrainScreener(cls, samples, testConfig(40, 16), TrainOptions{}); err == nil {
		t.Fatal("mismatched config should error")
	}
	if _, _, err := TrainScreener(cls, nil, testConfig(20, 16), TrainOptions{}); err == nil {
		t.Fatal("no samples should error")
	}
	bad := [][]float32{make([]float32, 7)}
	if _, _, err := TrainScreener(cls, bad, testConfig(20, 16), TrainOptions{}); err == nil {
		t.Fatal("bad sample dimension should error")
	}
}

func TestScreenPanicsBeforeFreeze(t *testing.T) {
	scr, err := newScreener(testConfig(10, 16))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic before Freeze")
		}
	}()
	scr.Screen(make([]float32, 16))
}

func TestSelectCandidates(t *testing.T) {
	z := []float32{0.5, 3, -1, 3, 2}
	top := SelectCandidates(z, TopM(2))
	if len(top) != 2 || top[0] != 1 || top[1] != 3 {
		t.Fatalf("TopM = %v", top)
	}
	th := SelectCandidates(z, Threshold(2))
	if len(th) != 3 {
		t.Fatalf("Threshold = %v", th)
	}
}

func TestCalibrateThreshold(t *testing.T) {
	cls, samples := testModel(t, 200, 64, 40)
	scr, _, err := TrainScreener(cls, samples[:24], testConfig(200, 64), TrainOptions{Epochs: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	valid := samples[24:]
	const target = 10
	th := CalibrateThreshold(scr, valid, target)
	var total int
	for _, h := range valid {
		total += len(SelectCandidates(scr.Screen(h), Threshold(th)))
	}
	avg := float64(total) / float64(len(valid))
	if avg < target/2 || avg > target*2 {
		t.Fatalf("calibrated threshold yields %v candidates on average, want ≈ %d", avg, target)
	}
}

func TestClassifyApproxMergesExactValues(t *testing.T) {
	cls, samples := testModel(t, 150, 64, 30)
	scr, _, err := TrainScreener(cls, samples, testConfig(150, 64), TrainOptions{Epochs: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := samples[0]
	res := ClassifyApprox(cls, scr, h, TopM(12))
	if len(res.Candidates) != 12 {
		t.Fatalf("candidates = %d", len(res.Candidates))
	}
	full := cls.Logits(h)
	for j, c := range res.Candidates {
		if res.Mixed[c] != full[c] || res.Exact[j] != full[c] {
			t.Fatalf("candidate %d not exact", c)
		}
	}
}

// TestScreeningRecall verifies the core hypothesis: with a modest
// candidate budget, screening recovers the true top-1 almost always.
func TestScreeningRecall(t *testing.T) {
	cls, samples := testModel(t, 300, 64, 260)
	cfg := Config{Categories: 300, Hidden: 64, Reduced: 32, Precision: quant.INT4, Seed: 7}
	scr, _, err := TrainScreener(cls, samples[:200], cfg, TrainOptions{Epochs: 12, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	test := samples[200:]
	for _, h := range test {
		res := ClassifyApprox(cls, scr, h, TopM(30)) // 10% budget
		if res.Predict() == cls.Predict(h) {
			hits++
		}
	}
	recall := float64(hits) / float64(len(test))
	if recall < 0.8 {
		t.Fatalf("top-1 recall %v with 10%% candidate budget", recall)
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{Mixed: []float32{0, 5, 2}}
	if r.Predict() != 1 {
		t.Fatal("Predict")
	}
	top := r.TopPredictions(2)
	if top[0] != 1 || top[1] != 2 {
		t.Fatalf("TopPredictions = %v", top)
	}
	p := r.Probabilities()
	if tensor.ArgMax(p) != 1 {
		t.Fatal("Probabilities argmax")
	}
}

func TestClassifyBatch(t *testing.T) {
	cls, samples := testModel(t, 60, 32, 10)
	scr, _, err := TrainScreener(cls, samples, testConfig(60, 32), TrainOptions{Epochs: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	cands := make([]int, 4) // per item; 0 means never visited
	err = ClassifyBatchVisitCtx(context.Background(), cls, scr, samples[:4], TopM(5), nil,
		func(i int, r *Result, _ *Scratch) { cands[i] = len(r.Candidates) })
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range cands {
		if n != 5 {
			t.Fatalf("item %d: %d candidates, want 5", i, n)
		}
	}
}

func TestCostAccounting(t *testing.T) {
	full := FullClassificationCost(1000, 512)
	if full.FP32MACs != 512000 {
		t.Fatalf("full MACs = %v", full.FP32MACs)
	}
	approx := ScreeningCost(1000, 512, 128, quant.INT4)
	approx.Add(CandidateCost(20, 512))
	if approx.Bytes >= full.Bytes {
		t.Fatalf("approx bytes %v not below full %v", approx.Bytes, full.Bytes)
	}
	// INT4 screening weights are 1/32 the size of FP32 full weights
	// per element ratio k/d=1/4 -> overall ~1/32; check < 1/10.
	if approx.Bytes > full.Bytes/5 {
		t.Fatalf("approx traffic reduction too weak: %v vs %v", approx.Bytes, full.Bytes)
	}
	if full.Intensity() > 1 {
		t.Fatalf("full classification should be memory-bound, intensity %v", full.Intensity())
	}
	scaled := full.ScaleBy(4)
	if scaled.FP32MACs != full.FP32MACs*4 {
		t.Fatal("ScaleBy")
	}
	var acc OpCount
	acc.Add(full)
	acc.Add(approx)
	if acc.FP32MACs != full.FP32MACs+approx.FP32MACs {
		t.Fatal("Add")
	}
}

func TestScreenerWeightBytes(t *testing.T) {
	cls, samples := testModel(t, 64, 32, 8)
	cfg := testConfig(64, 32)
	scr, _, err := TrainScreener(cls, samples, cfg, TrainOptions{Epochs: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if scr.WeightBytes() >= cls.WeightBytes() {
		t.Fatal("screener should be much smaller than classifier")
	}
}

func corr(a, b []float32) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += float64(a[i])
		mb += float64(b[i])
	}
	ma /= n
	mb /= n
	var sab, saa, sbb float64
	for i := range a {
		da, db := float64(a[i])-ma, float64(b[i])-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}

// TestTrainWorkerCountInvariant: the parallel target precomputation
// must be bit-identical for any worker count (GOMAXPROCS).
func TestTrainWorkerCountInvariant(t *testing.T) {
	cls, samples := testModel(t, 90, 48, 32)
	cfg := testConfig(90, 48)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	train := func(workers int) *Screener {
		runtime.GOMAXPROCS(workers)
		scr, _, err := TrainScreener(cls, samples, cfg, TrainOptions{Epochs: 3, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return scr
	}
	a, b := train(1), train(7)
	for i := range a.Wt.Data {
		if a.Wt.Data[i] != b.Wt.Data[i] {
			t.Fatalf("weights diverge with worker count at %d", i)
		}
	}
}

// TestQuantAwareTrainingHelpsAtINT2: straight-through-estimator
// distillation must reduce the deployed (quantized) screening error
// at the aggressive INT2 precision compared with post-training
// quantization.
func TestQuantAwareTrainingHelpsAtINT2(t *testing.T) {
	cls, samples := testModel(t, 200, 64, 160)
	cfg := Config{Categories: 200, Hidden: 64, Reduced: 32, Precision: quant.INT2, Seed: 7}
	mse := func(qat bool) float64 {
		scr, _, err := TrainScreener(cls, samples[:128], cfg, TrainOptions{
			Epochs: 10, Seed: 3, QuantAware: qat,
		})
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, h := range samples[128:] {
			total += tensor.MSE(scr.Screen(h), cls.Logits(h))
		}
		return total
	}
	post := mse(false)
	qat := mse(true)
	if qat >= post {
		t.Fatalf("QAT MSE %v not below post-training %v at INT2", qat, post)
	}
}

// TestScreenBatchMatchesScreen: the weight-stationary batch kernel
// must be bit-identical to per-vector screening.
func TestScreenBatchMatchesScreen(t *testing.T) {
	cls, samples := testModel(t, 150, 64, 12)
	scr, _, err := TrainScreener(cls, samples, testConfig(150, 64), TrainOptions{Epochs: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	batch := samples[:6]
	sc := GetScratch()
	defer sc.Release()
	got := make([][]float32, len(batch))
	for b := range got {
		got[b] = make([]float32, scr.Cfg.Categories)
	}
	scr.ScreenBatchInto(got, batch, sc)
	for b, h := range batch {
		want := scr.Screen(h)
		for i := range want {
			if got[b][i] != want[i] {
				t.Fatalf("batch %d row %d: %v vs %v", b, i, got[b][i], want[i])
			}
		}
	}
}
