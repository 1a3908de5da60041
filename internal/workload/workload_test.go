package workload

import (
	"math"
	"testing"

	"enmc/internal/tensor"
)

func TestTable2MatchesPaper(t *testing.T) {
	specs := Table2()
	if len(specs) != 4 {
		t.Fatalf("Table 2 has %d rows", len(specs))
	}
	want := map[string][2]int{
		"LSTM-W33K":         {33278, 1500},
		"Transformer-W268K": {267744, 512},
		"GNMT-E32K":         {32317, 1024},
		"XMLCNN-670K":       {670091, 512},
	}
	for _, s := range specs {
		w, ok := want[s.Name]
		if !ok {
			t.Fatalf("unexpected spec %q", s.Name)
		}
		if s.Categories != w[0] || s.Hidden != w[1] {
			t.Fatalf("%s: l=%d d=%d, want l=%d d=%d", s.Name, s.Categories, s.Hidden, w[0], w[1])
		}
	}
}

func TestSyntheticSpecs(t *testing.T) {
	syn := Synthetic()
	if len(syn) != 3 {
		t.Fatalf("synthetic specs = %d", len(syn))
	}
	if syn[0].Categories != 1_000_000 || syn[2].Categories != 100_000_000 {
		t.Fatal("synthetic category counts wrong")
	}
	// S100M at hidden 512 must be ≈190 GB as the paper states.
	gb := syn[2].WeightBytes() / (1 << 30)
	if gb < 180 || gb < 0 || gb > 200 {
		t.Fatalf("S100M footprint %.1f GB, want ≈190", gb)
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("S10M")
	if err != nil || s.Categories != 10_000_000 {
		t.Fatalf("ByName(S10M) = %+v, %v", s, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown name")
	}
}

func TestScaled(t *testing.T) {
	s := Table2()[3].Scaled(16)
	if s.Categories != 670091/16 {
		t.Fatalf("scaled categories = %d", s.Categories)
	}
	if s.Hidden != 512 {
		t.Fatal("scaling must not change hidden dim")
	}
	tiny := Spec{Categories: 100, Hidden: 8}.Scaled(1000)
	if tiny.Categories != 64 {
		t.Fatalf("scaling floor = %d", tiny.Categories)
	}
	if same := (Spec{Categories: 100}).Scaled(1); same.Categories != 100 {
		t.Fatal("factor 1 must be identity")
	}
}

func TestClassificationBreakdownShape(t *testing.T) {
	// The paper's Fig. 4 claim: classification dominates for the
	// recommendation workload far more than for LSTM-W33K.
	lstm := Table2()[0]
	xml := Table2()[3]
	fracLSTM := lstm.ClassificationParams() / (lstm.ClassificationParams() + lstm.FrontEnd.Params)
	fracXML := xml.ClassificationParams() / (xml.ClassificationParams() + xml.FrontEnd.Params)
	if fracXML < 0.9 {
		t.Fatalf("XMLCNN classification fraction %v, want > 0.9", fracXML)
	}
	if fracLSTM > fracXML {
		t.Fatal("LSTM classification fraction should be below XMLCNN")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Name: "t", Categories: 128, Hidden: 32, LatentRank: 8, ZipfS: 1}
	a := Generate(spec, GenOptions{Seed: 5, Train: 8, Valid: 4, Test: 4})
	b := Generate(spec, GenOptions{Seed: 5, Train: 8, Valid: 4, Test: 4})
	for i := range a.Classifier.W.Data {
		if a.Classifier.W.Data[i] != b.Classifier.W.Data[i] {
			t.Fatal("same seed produced different weights")
		}
	}
	for i := range a.Test {
		for j := range a.Test[i] {
			if a.Test[i][j] != b.Test[i][j] {
				t.Fatal("same seed produced different samples")
			}
		}
	}
	c := Generate(spec, GenOptions{Seed: 6, Train: 8, Valid: 4, Test: 4})
	if a.Classifier.W.Data[0] == c.Classifier.W.Data[0] {
		t.Fatal("different seeds produced identical weights")
	}
}

// TestDemoBitIdentical: two Demo calls with the same arguments build
// Float32bits-equal classifiers — the invariant that lets processes
// started with matching -demo-* flags share one model.
func TestDemoBitIdentical(t *testing.T) {
	a, b := Demo(96, 32, 7), Demo(96, 32, 7)
	if a.Classifier.Categories() != 96 || a.Classifier.Hidden() != 32 || len(a.Train) != 512 {
		t.Fatalf("demo shape %d×%d, %d train samples",
			a.Classifier.Categories(), a.Classifier.Hidden(), len(a.Train))
	}
	for i, w := range a.Classifier.W.Data {
		if math.Float32bits(w) != math.Float32bits(b.Classifier.W.Data[i]) {
			t.Fatalf("weight %d differs across calls", i)
		}
	}
	for i, bias := range a.Classifier.B {
		if math.Float32bits(bias) != math.Float32bits(b.Classifier.B[i]) {
			t.Fatalf("bias %d differs across calls", i)
		}
	}
}

func TestGenerateShapesAndSplits(t *testing.T) {
	spec := Spec{Name: "t", Categories: 200, Hidden: 24, LatentRank: 8, ZipfS: 1}
	inst := Generate(spec, GenOptions{Seed: 1, Train: 10, Valid: 5, Test: 7})
	if inst.Classifier.Categories() != 200 || inst.Classifier.Hidden() != 24 {
		t.Fatal("classifier shape")
	}
	if len(inst.Train) != 10 || len(inst.Valid) != 5 || len(inst.Test) != 7 {
		t.Fatal("split sizes")
	}
	if len(inst.Labels) != 7 {
		t.Fatalf("labels = %d", len(inst.Labels))
	}
	for _, lab := range inst.Labels {
		if lab < 0 || lab >= 200 {
			t.Fatalf("label out of range: %d", lab)
		}
	}
}

func TestGeneratedFeaturesArePeaked(t *testing.T) {
	spec := Spec{Name: "t", Categories: 300, Hidden: 48, LatentRank: 16, ZipfS: 1}
	inst := Generate(spec, GenOptions{Seed: 2, Test: 60})
	// The labeled class should rank very highly under the full
	// classifier for most test samples.
	good := 0
	for i, h := range inst.Test {
		z := inst.Classifier.Logits(h)
		top := tensor.TopK(z, 10)
		for _, c := range top {
			if c == inst.Labels[i] {
				good++
				break
			}
		}
	}
	if good < 45 {
		t.Fatalf("only %d/60 labels in model top-10; features not peaked", good)
	}
}

func TestZipfSkew(t *testing.T) {
	spec := Spec{Name: "t", Categories: 1000, Hidden: 16, LatentRank: 4, ZipfS: 1.2}
	inst := Generate(spec, GenOptions{Seed: 3, Test: 400})
	counts := map[int]int{}
	for _, lab := range inst.Labels {
		counts[lab]++
	}
	// Skewed sampling: far fewer distinct classes than samples.
	if len(counts) > 350 {
		t.Fatalf("labels look uniform: %d distinct over 400 draws", len(counts))
	}
}

func TestDecoderDeterministicAndSensitive(t *testing.T) {
	spec := Spec{Name: "t", Categories: 150, Hidden: 32, LatentRank: 8, ZipfS: 1}
	inst := Generate(spec, GenOptions{Seed: 4, Test: 4})
	dec := NewDecoder(inst, 9, 20)
	exact := func(h []float32) int { return inst.Classifier.Predict(h) }

	a := dec.Decode(inst.Test[0], 15, exact)
	b := dec.Decode(inst.Test[0], 15, exact)
	if len(a) != 15 {
		t.Fatalf("decode length %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("decode not deterministic")
		}
	}

	// A classifier that disagrees early must change the trajectory.
	perturbed := dec.Decode(inst.Test[0], 15, func(h []float32) int {
		return (inst.Classifier.Predict(h) + 1) % 150
	})
	same := 0
	for i := range a {
		if a[i] == perturbed[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("perturbed classifier produced identical decode")
	}
}

func TestDecodeLengthClamped(t *testing.T) {
	spec := Spec{Name: "t", Categories: 64, Hidden: 16, LatentRank: 4, ZipfS: 1}
	inst := Generate(spec, GenOptions{Seed: 5, Test: 1})
	dec := NewDecoder(inst, 1, 5)
	out := dec.Decode(inst.Test[0], 99, func(h []float32) int { return 0 })
	if len(out) != 5 {
		t.Fatalf("decode length %d, want clamped to 5", len(out))
	}
}

func TestWeightBytes(t *testing.T) {
	s := Spec{Categories: 1000, Hidden: 100}
	want := float64(1000*100+1000) * 4
	if math.Abs(s.WeightBytes()-want) > 1 {
		t.Fatalf("WeightBytes = %v", s.WeightBytes())
	}
}
