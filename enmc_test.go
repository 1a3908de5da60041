package enmc

import (
	"bytes"
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"enmc/internal/core"
	"enmc/internal/experiments"
	"enmc/internal/workload"
)

// publicModel builds a small synthetic model through the public API
// only (weights come from the internal generator, converted to plain
// slices at the boundary).
func publicModel(t testing.TB, l, d int) (*Classifier, [][]float32) {
	t.Helper()
	spec := workload.Spec{Name: "api", Categories: l, Hidden: d, LatentRank: 16, ZipfS: 1}
	inst := workload.Generate(spec, workload.GenOptions{Seed: 11, Train: 96, Valid: 16, Test: 32})
	rows := make([][]float32, l)
	for i := 0; i < l; i++ {
		rows[i] = inst.Classifier.W.Row(i)
	}
	cls, err := NewClassifier(rows, inst.Classifier.B)
	if err != nil {
		t.Fatal(err)
	}
	return cls, append(inst.Train, inst.Test...)
}

func TestNewClassifierValidation(t *testing.T) {
	if _, err := NewClassifier(nil, nil); err == nil {
		t.Fatal("empty weights accepted")
	}
	if _, err := NewClassifier([][]float32{{1, 2}}, []float32{1, 2}); err == nil {
		t.Fatal("bias mismatch accepted")
	}
}

func TestEndToEndClassification(t *testing.T) {
	cls, samples := publicModel(t, 256, 64)
	if cls.Categories() != 256 || cls.Hidden() != 64 {
		t.Fatal("shape accessors")
	}
	scr, err := TrainScreener(cls, samples[:96], ScreenerConfig{Seed: 3, Epochs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if scr.WeightBytes() >= cls.WeightBytes() {
		t.Fatal("screener not smaller than classifier")
	}
	hits := 0
	test := samples[96:]
	for _, h := range test {
		res := Classify(cls, scr, h, TopM(16))
		if len(res.Candidates) != 16 {
			t.Fatalf("candidates = %d", len(res.Candidates))
		}
		if res.Predict() == cls.Predict(h) {
			hits++
		}
	}
	if hits < len(test)*8/10 {
		t.Fatalf("top-1 agreement %d/%d too low", hits, len(test))
	}
}

func TestResultHelpers(t *testing.T) {
	cls, samples := publicModel(t, 128, 32)
	scr, err := TrainScreener(cls, samples[:64], ScreenerConfig{Seed: 5, Epochs: 6})
	if err != nil {
		t.Fatal(err)
	}
	res := Classify(cls, scr, samples[0], TopM(8))
	top := res.TopK(3)
	if len(top) != 3 || top[0] != res.Predict() {
		t.Fatalf("TopK inconsistent with Predict: %v vs %d", top, res.Predict())
	}
	p := res.Probabilities()
	var sum float64
	for _, v := range p {
		sum += float64(v)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probabilities sum %v", sum)
	}
}

func TestThresholdSelection(t *testing.T) {
	cls, samples := publicModel(t, 200, 32)
	scr, err := TrainScreener(cls, samples[:64], ScreenerConfig{Seed: 7, Epochs: 6})
	if err != nil {
		t.Fatal(err)
	}
	th := CalibrateThreshold(scr, samples[64:96], 12)
	var total int
	for _, h := range samples[96:] {
		total += len(Classify(cls, scr, h, Threshold(th)).Candidates)
	}
	avg := float64(total) / float64(len(samples[96:]))
	if avg < 3 || avg > 48 {
		t.Fatalf("calibrated threshold yields %.1f candidates on average, want ≈ 12", avg)
	}
}

func TestClassifyBatchPublic(t *testing.T) {
	cls, samples := publicModel(t, 100, 32)
	scr, err := TrainScreener(cls, samples[:64], ScreenerConfig{Seed: 9, Epochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	out := ClassifyBatch(cls, scr, samples[:5], TopM(4))
	if len(out) != 5 {
		t.Fatal("batch size")
	}
}

// TestClassifyContext: a done context returns context.Canceled and no
// result; a live one returns exactly core.ClassifyApprox's numbers.
func TestClassifyContext(t *testing.T) {
	cls, scr, test := trainedModel(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := ClassifyContext(ctx, cls, scr, test[0], TopM(8)); err != context.Canceled || res != nil {
		t.Fatalf("cancelled: res=%v err=%v, want nil, context.Canceled", res, err)
	}
	for i, h := range test[:4] {
		got, err := ClassifyContext(context.Background(), cls, scr, h, TopM(8))
		if err != nil {
			t.Fatal(err)
		}
		want := core.ClassifyApprox(cls.inner, scr.inner, h, TopM(8))
		if len(got.Logits) != len(want.Mixed) || len(got.Candidates) != len(want.Candidates) {
			t.Fatalf("item %d: shape mismatch", i)
		}
		for k := range want.Mixed {
			if math.Float32bits(got.Logits[k]) != math.Float32bits(want.Mixed[k]) {
				t.Fatalf("item %d: logit %d differs", i, k)
			}
		}
		for k := range want.Candidates {
			if got.Candidates[k] != want.Candidates[k] {
				t.Fatalf("item %d: candidate %d differs", i, k)
			}
		}
	}
}

func TestSimulatePublic(t *testing.T) {
	task := SimTask{Categories: 262144, Hidden: 512}
	en, err := Simulate("enmc", task)
	if err != nil {
		t.Fatal(err)
	}
	if en.Seconds <= 0 || en.TotalJoules() <= 0 {
		t.Fatalf("empty result %+v", en)
	}
	td, err := Simulate("tensordimm", SimTask{Categories: 262144, Hidden: 512, FullClassification: true})
	if err != nil {
		t.Fatal(err)
	}
	if td.Seconds <= en.Seconds {
		t.Fatal("full classification on TensorDIMM should be slower than screened ENMC")
	}
	if _, err := Simulate("warp-drive", task); err == nil {
		t.Fatal("unknown design accepted")
	}
}

func TestAssembleAndRunProgram(t *testing.T) {
	src := `
# minimal screening tile
INIT reg_5, 1024
LDR feat_i4, 0x0
LDR wgt_i4, 0x1000
MUL_ADD_INT4 feat_i4, wgt_i4
FILTER psum_i4
BARRIER
RETURN
`
	p, err := AssembleProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 7 {
		t.Fatalf("program length %d", p.Len())
	}
	if !strings.Contains(p.Disassemble(), "MUL_ADD_INT4") {
		t.Fatal("disassembly lost mnemonics")
	}
	res, err := p.RunOnDIMM()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Instructions != 7 || res.INT4MACs != 512 {
		t.Fatalf("unexpected run result %+v", res)
	}
	if _, err := AssembleProgram("BOGUS x"); err == nil {
		t.Fatal("bad assembly accepted")
	}
}

func TestRunExperimentPublic(t *testing.T) {
	out, err := RunExperiment("table4", true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "TensorDIMM") || !strings.Contains(out, "ENMC") {
		t.Fatalf("table4 output malformed:\n%s", out)
	}
	if _, err := RunExperiment("fig99", true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	names := ExperimentNames()
	if len(names) != 17 {
		t.Fatalf("experiment count = %d", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatal("names not sorted")
		}
	}
}

// TestExperimentNamesMatchBench: ExperimentNames lists exactly the
// experiments enmc-bench runs, each once.
func TestExperimentNamesMatchBench(t *testing.T) {
	var bench []string
	for _, e := range experiments.Registry {
		bench = append(bench, e.Name)
	}
	slices.Sort(bench)
	if names := ExperimentNames(); !slices.Equal(bench, names) || len(slices.Compact(slices.Clone(names))) != len(names) {
		t.Fatalf("enmc-bench runs %v, ExperimentNames %v", bench, names)
	}
}

func TestPublicSaveLoad(t *testing.T) {
	cls, samples := publicModel(t, 96, 32)
	scr, err := TrainScreener(cls, samples[:64], ScreenerConfig{Seed: 2, Epochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sbuf, cbuf bytes.Buffer
	if err := SaveScreener(scr, &sbuf); err != nil {
		t.Fatal(err)
	}
	if err := SaveClassifier(cls, &cbuf); err != nil {
		t.Fatal(err)
	}
	scr2, err := LoadScreener(&sbuf)
	if err != nil {
		t.Fatal(err)
	}
	cls2, err := LoadClassifier(&cbuf)
	if err != nil {
		t.Fatal(err)
	}
	h := samples[0]
	a := Classify(cls, scr, h, TopM(5))
	b := Classify(cls2, scr2, h, TopM(5))
	for i := range a.Logits {
		if a.Logits[i] != b.Logits[i] {
			t.Fatal("restored model diverged")
		}
	}
}

func TestPublicLogitsAndScreen(t *testing.T) {
	cls, samples := publicModel(t, 80, 32)
	scr, err := TrainScreener(cls, samples[:48], ScreenerConfig{Seed: 4, Epochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := samples[0]
	z := cls.Logits(h)
	if len(z) != 80 {
		t.Fatalf("logits length %d", len(z))
	}
	zt := scr.Screen(h)
	if len(zt) != 80 {
		t.Fatalf("screen length %d", len(zt))
	}
	// The screened argmax should usually agree; at minimum the exact
	// argmax must appear in the screened top quarter.
	top := TopM(20)
	res := Classify(cls, scr, h, top)
	found := false
	for _, c := range res.Candidates {
		if c == cls.Predict(h) {
			found = true
		}
	}
	if !found {
		t.Fatal("exact top-1 not among 25% screened candidates")
	}
}

func TestProgramTrace(t *testing.T) {
	p, err := AssembleProgram("LDR wgt_i4, 0x0\nMUL_ADD_INT4 feat_i4, wgt_i4\nRETURN\n")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	p.SetTrace(&buf)
	if _, err := p.RunOnDIMM(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Fatalf("trace lines = %d", got)
	}
}
