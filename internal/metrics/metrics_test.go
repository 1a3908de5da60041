package metrics

import (
	"context"
	"errors"
	"math"
	"testing"

	"enmc/internal/core"
	"enmc/internal/tensor"
)

func TestPerplexityUniform(t *testing.T) {
	// Uniform logits over V classes → perplexity V.
	logits := [][]float32{make([]float32, 10), make([]float32, 10)}
	got := Perplexity(logits, []int{0, 3})
	if math.Abs(got-10) > 1e-6 {
		t.Fatalf("uniform perplexity = %v, want 10", got)
	}
}

func TestPerplexityConfident(t *testing.T) {
	z := make([]float32, 10)
	z[4] = 50 // near-delta on the right label
	got := Perplexity([][]float32{z}, []int{4})
	if got > 1.0001 {
		t.Fatalf("confident perplexity = %v, want ≈1", got)
	}
	wrong := Perplexity([][]float32{z}, []int{5})
	if wrong < 1e10 {
		t.Fatalf("wrong-label perplexity = %v, should explode", wrong)
	}
}

func TestPerplexityValidation(t *testing.T) {
	if !math.IsNaN(Perplexity(nil, nil)) {
		t.Fatal("empty perplexity should be NaN")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Perplexity([][]float32{{1}}, []int{0, 1})
}

// identity is a 6-class classifier whose logits are its input.
func identity() *core.Classifier {
	w := tensor.NewMatrix(6, 6)
	for i := 0; i < 6; i++ {
		w.Set(i, i, 1)
	}
	cls, err := core.NewClassifier(w, make([]float32, 6))
	if err != nil {
		panic(err)
	}
	return cls
}

// qualityProbes pairs four probes (exact logits, since the classifier
// is the identity) with the screened logits classify answers for them.
var qualityProbes = []struct{ exact, screened []float32 }{
	{[]float32{6, 5, 4, 3, 2, 1}, []float32{6, 5, 4, 3, 2, 1}}, // all agree
	{[]float32{1, 2, 3, 4, 5, 6}, []float32{0, 0, 0, 9, 8, 1}}, // same top-3 set, top-1 3 ≠ 5
	{[]float32{1, 1, 1, 0, 0, 0}, []float32{0, 0, 5, 0, 0, 9}}, // top-3 {5,2,0} vs {0,1,2}
	{[]float32{0, 3, 3, 0, 0, 0}, []float32{0, 7, 7, 0, 0, 0}}, // ties go to the lower index on both sides
}

func screenQuality(ctx context.Context, k int) (Quality, error) {
	probes := make([][]float32, len(qualityProbes))
	for i, p := range qualityProbes {
		probes[i] = p.exact
	}
	next := 0 // probes are classified in order
	return ScreenQuality(ctx, identity(), probes, k, func([]float32) *core.Result {
		next++
		return &core.Result{Mixed: qualityProbes[next-1].screened}
	})
}

func TestScreenQuality(t *testing.T) {
	for _, tc := range []struct {
		k    int
		want Quality
	}{
		// Probe hits at k=3: 3, 3, 2, 3 of 3; top-1 matches on probes 0
		// and 3; probe 1's screened top-1 (3) is in the exact top-3.
		{3, Quality{RecallAtK: 11.0 / 12, Top1: 2.0 / 4, Top1InK: 3.0 / 4}},
		// At k=1 the three fractions coincide.
		{1, Quality{RecallAtK: 2.0 / 4, Top1: 2.0 / 4, Top1InK: 2.0 / 4}},
		// k past the class count is clamped to it: every set is all 6.
		{10, Quality{RecallAtK: 1, Top1: 2.0 / 4, Top1InK: 1}},
	} {
		got, err := screenQuality(context.Background(), tc.k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.RecallAtK-tc.want.RecallAtK) > 1e-12 || got.Top1 != tc.want.Top1 || got.Top1InK != tc.want.Top1InK {
			t.Errorf("k=%d: %+v, want %+v", tc.k, got, tc.want)
		}
	}

	q, err := ScreenQuality(context.Background(), identity(), nil, 5, nil)
	if err != nil || !math.IsNaN(q.RecallAtK) || !math.IsNaN(q.Top1) || !math.IsNaN(q.Top1InK) {
		t.Fatalf("no probes: %+v, %v; want NaN fractions", q, err)
	}
}

// TestPrecisionAtK: RecallAtK is precision at k, since the screened
// and exact sets both hold k classes; partial overlap scores the shared
// fraction, and a smaller k counts only the head of each ranking.
func TestPrecisionAtK(t *testing.T) {
	for _, tc := range []struct {
		k    int
		want float64
	}{
		{3, 11.0 / 12}, // hits 3, 3, 2, 3 of 3
		{2, 5.0 / 8},   // hits 2, 1, 0, 2 of 2
		{1, 2.0 / 4},   // hits 1, 0, 0, 1 of 1
	} {
		got, err := screenQuality(context.Background(), tc.k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.RecallAtK-tc.want) > 1e-12 {
			t.Errorf("P@%d = %v, want %v", tc.k, got.RecallAtK, tc.want)
		}
	}
}

// TestTopKAgreement: Top1InK is the fraction of probes whose screened
// top-1 lies in the exact top-k, and at k=1 it is the exact-match Top1.
func TestTopKAgreement(t *testing.T) {
	for _, tc := range []struct {
		k    int
		want float64
	}{
		{3, 3.0 / 4}, // probe 2's screened top-1 (5) is outside {0,1,2}
		{2, 2.0 / 4}, // probe 1's (3) now falls outside {5,4} too
		{1, 2.0 / 4},
	} {
		got, err := screenQuality(context.Background(), tc.k)
		if err != nil {
			t.Fatal(err)
		}
		if got.Top1InK != tc.want {
			t.Errorf("k=%d: agreement = %v, want %v", tc.k, got.Top1InK, tc.want)
		}
		if tc.k == 1 && got.Top1InK != got.Top1 {
			t.Errorf("k=1: agreement %v != Top1 %v", got.Top1InK, got.Top1)
		}
	}
}

// TestScreenQualityContext: a context that ends part-way returns its
// error, not the fractions over the probes scored so far.
func TestScreenQualityContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := screenQuality(ctx, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: err = %v", err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	_, err := ScreenQuality(ctx, identity(), [][]float32{qualityProbes[0].exact, qualityProbes[1].exact}, 3,
		func(h []float32) *core.Result {
			calls++
			cancel()
			return &core.Result{Mixed: h}
		})
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("cancel after one probe: err = %v after %d calls, want context.Canceled after 1", err, calls)
	}
}

func TestBLEUIdentical(t *testing.T) {
	c := [][]int{{1, 2, 3, 4, 5, 6}}
	got := BLEU(c, c)
	if math.Abs(got-1) > 1e-9 {
		t.Fatalf("self-BLEU = %v, want 1", got)
	}
}

func TestBLEUDisjoint(t *testing.T) {
	got := BLEU([][]int{{1, 2, 3, 4}}, [][]int{{5, 6, 7, 8}})
	if got != 0 {
		t.Fatalf("disjoint BLEU = %v, want 0", got)
	}
}

func TestBLEUPartial(t *testing.T) {
	// One token changed out of eight: BLEU must be strictly between
	// 0 and 1, and higher than a half-changed sequence.
	ref := [][]int{{1, 2, 3, 4, 5, 6, 7, 8}}
	one := BLEU([][]int{{1, 2, 3, 4, 5, 6, 7, 99}}, ref)
	half := BLEU([][]int{{1, 99, 3, 98, 5, 97, 7, 96}}, ref)
	if !(one > 0 && one < 1) {
		t.Fatalf("one-sub BLEU = %v", one)
	}
	if half >= one {
		t.Fatalf("half-sub BLEU %v not below one-sub %v", half, one)
	}
}

func TestBLEUBrevityPenalty(t *testing.T) {
	ref := [][]int{{1, 2, 3, 4, 5, 6, 7, 8}}
	short := BLEU([][]int{{1, 2, 3, 4, 5}}, ref)
	full := BLEU([][]int{{1, 2, 3, 4, 5, 6, 7, 8}}, ref)
	if short >= full {
		t.Fatalf("brevity penalty missing: short %v >= full %v", short, full)
	}
}

func TestBLEUClipping(t *testing.T) {
	// Repeating a reference word must not inflate precision.
	ref := [][]int{{1, 2, 3, 4, 5, 6}}
	spam := BLEU([][]int{{1, 1, 1, 1, 1, 1}}, ref)
	if spam > 0.2 {
		t.Fatalf("clipped BLEU = %v, repetition rewarded", spam)
	}
}

func TestBLEUCorpusPooling(t *testing.T) {
	// Corpus BLEU pools n-gram counts; two half-right sentences score
	// the same as pooled stats, not averaged sentence BLEU of 0.
	refs := [][]int{{1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}}
	cands := [][]int{{1, 2, 3, 4, 5}, {11, 12, 13, 14, 15}}
	got := BLEU(cands, refs)
	if !(got > 0 && got < 1) {
		t.Fatalf("corpus BLEU = %v", got)
	}
}

func TestBLEUEmptyCorpus(t *testing.T) {
	if !math.IsNaN(BLEU(nil, nil)) {
		t.Fatal("empty corpus should be NaN")
	}
}
