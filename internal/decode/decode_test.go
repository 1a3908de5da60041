package decode

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enmc/internal/activation"
	"enmc/internal/core"
	"enmc/internal/metrics"
	"enmc/internal/quant"
	"enmc/internal/testkit"
	"enmc/internal/workload"
)

// testModel builds a trained screening stack and a decoder over it —
// the probe corpus is inst.Test.
func testModel(t testing.TB) (*workload.Instance, *core.Screener, *workload.Decoder) {
	t.Helper()
	inst := workload.Generate(
		workload.Spec{Name: "decode-test", Categories: 192, Hidden: 32, LatentRank: 8, ZipfS: 1},
		workload.GenOptions{Seed: 17, Train: 128, Valid: 8, Test: 8})
	scr, _, err := core.TrainScreener(inst.Classifier, inst.Train, core.Config{
		Categories: 192, Hidden: 32, Reduced: 16, Precision: quant.INT8, Seed: 3,
	}, core.TrainOptions{Epochs: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	dec := workload.NewDecoderFor(inst.Classifier, 7, 24)
	return inst, scr, dec
}

func newTestService(inst *workload.Instance, scr *core.Screener, dec *workload.Decoder, cacheSlots int) *Service {
	return NewService(Config{TopM: 24}, dec, func() Scorer {
		return NewLocalScorer(inst.Classifier, scr, LocalScorerConfig{CacheSlots: cacheSlots, VerifyEvery: 4})
	})
}

func pumpAll(t *testing.T, svc *Service, mode Mode, width int, h0 []float32) ([]int, int64, int64) {
	t.Helper()
	sess, err := svc.Open(mode, width, h0)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := sess.Run(context.Background(), svc.MaxLen(), func(Token) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !fin {
		t.Fatal("session did not finish")
	}
	toks := sess.Tokens()
	hits, misses := sess.CacheStats()
	if err := svc.Close(sess.ID); err != nil {
		t.Fatal(err)
	}
	return toks, hits, misses
}

// TestCacheHitRate: a greedy session through the candidate cache
// emits the token sequence the decoder gives with the single-shot
// ClassifyApproxInto as its classifier, on every probe sentence, while
// the cache hits on more than half its lookups; the zero-value config
// uses no cache. (That a scorer's scores are bit-identical with and
// without the cache is a row of the testkit conformance table.)
func TestCacheHitRate(t *testing.T) {
	testkit.NoLeaks(t)
	inst, scr, dec := testModel(t)
	cached := newTestService(inst, scr, dec, 4*24)
	uncached := newTestService(inst, scr, dec, 0) // the zero value: no cache
	defer cached.Shutdown()
	defer uncached.Shutdown()

	sc := core.GetScratch()
	defer sc.Release()
	ref := func(h []float32) int {
		return core.ClassifyApproxInto(inst.Classifier, scr, h, core.TopM(24), sc).Predict()
	}

	var hits, misses int64
	for i, h0 := range inst.Test {
		got, h, m := pumpAll(t, cached, Greedy, 1, h0)
		hits, misses = hits+h, misses+m
		if _, ph, pm := pumpAll(t, uncached, Greedy, 1, h0); ph != 0 || pm != 0 {
			t.Fatalf("probe %d: zero-value scorer used a cache (%d hits, %d misses)", i, ph, pm)
		}
		want := dec.Decode(h0, dec.MaxLen(), ref)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("probe %d: cached token %d = %d, reference %d", i, j, got[j], want[j])
			}
		}
	}
	rate := float64(hits) / float64(hits+misses)
	t.Logf("cache hit rate %.1f%% (%d hits / %d misses)", 100*rate, hits, misses)
	if rate < 0.5 {
		t.Fatalf("cache hit rate %.2f below the 50%% acceptance bar", rate)
	}
}

// TestBeamWidthOneMatchesGreedy: a width-1 beam session walks the
// same path as a greedy session.
func TestBeamWidthOneMatchesGreedy(t *testing.T) {
	testkit.NoLeaks(t)
	inst, scr, dec := testModel(t)
	svc := newTestService(inst, scr, dec, 0)
	defer svc.Shutdown()
	for _, h0 := range inst.Test {
		g, _, _ := pumpAll(t, svc, Greedy, 1, h0)
		b, _, _ := pumpAll(t, svc, Beam, 1, h0)
		for j := range g {
			if g[j] != b[j] {
				t.Fatalf("token %d: greedy %d beam %d", j, g[j], b[j])
			}
		}
	}
}

// TestBeamProperties holds the beam search's invariants, one row
// each, on a full-budget service: at m = l every logit is exact, so
// the log-probabilities are the classifier's own softmax.
func TestBeamProperties(t *testing.T) {
	testkit.NoLeaks(t)
	inst, scr, dec := testModel(t)
	svc := NewService(Config{TopM: inst.Classifier.Categories()}, dec, func() Scorer {
		return NewLocalScorer(inst.Classifier, scr, LocalScorerConfig{})
	})
	defer svc.Shutdown()
	// beam pumps n steps through a fresh session and returns the best
	// hypothesis, its log-probability and the frames emitted.
	beam := func(t *testing.T, width, n int, h0 []float32) ([]int, float64, int) {
		t.Helper()
		sess, err := svc.Open(Beam, width, h0)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close(sess.ID)
		frames := 0
		fin, err := sess.Run(context.Background(), n, func(Token) error { frames++; return nil })
		if err != nil || !fin {
			t.Fatalf("width %d: fin=%v err=%v", width, fin, err)
		}
		return sess.Tokens(), sess.BestLogProb(), frames
	}
	for _, tc := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"wider never scores worse", func(t *testing.T) {
			for _, h := range inst.Test[:4] {
				_, one, _ := beam(t, 1, dec.MaxLen(), h)
				_, four, _ := beam(t, 4, dec.MaxLen(), h)
				if four < one-1e-9 {
					t.Fatalf("beam-4 logprob %v below beam-1 %v", four, one)
				}
			}
		}},
		{"deterministic", func(t *testing.T) {
			a, lpA, _ := beam(t, 3, dec.MaxLen(), inst.Test[1])
			b, lpB, _ := beam(t, 3, dec.MaxLen(), inst.Test[1])
			if !slices.Equal(a, b) || math.Float64bits(lpA) != math.Float64bits(lpB) {
				t.Fatalf("two runs differ: %v (%v) vs %v (%v)", a, lpA, b, lpB)
			}
		}},
		{"width 0 clamps to 1", func(t *testing.T) {
			zero, lpZero, _ := beam(t, 0, dec.MaxLen(), inst.Test[0])
			one, lpOne, _ := beam(t, 1, dec.MaxLen(), inst.Test[0])
			if !slices.Equal(zero, one) || math.Float64bits(lpZero) != math.Float64bits(lpOne) {
				t.Fatalf("width 0 %v (%v), width 1 %v (%v)", zero, lpZero, one, lpOne)
			}
		}},
		{"length beyond MaxLen clamps", func(t *testing.T) {
			toks, _, frames := beam(t, 2, dec.MaxLen()+76, inst.Test[0])
			if frames != dec.MaxLen() || len(toks) != dec.MaxLen() {
				t.Fatalf("%d frames, %d tokens, want %d", frames, len(toks), dec.MaxLen())
			}
		}},
		{"empty scorer collapses the beam", func(t *testing.T) {
			empty := NewService(Config{}, dec, func() Scorer { return emptyScorer{} })
			defer empty.Shutdown()
			sess, err := empty.Open(Beam, 2, inst.Test[0])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Run(context.Background(), 4, func(Token) error { return nil }); err == nil || sess.Step() != 0 {
				t.Fatalf("err %v after %d steps, want the beam to collapse on the first", err, sess.Step())
			}
		}},
	} {
		t.Run(tc.name, tc.check)
	}
}

// emptyScorer ranks no classes.
type emptyScorer struct{}

func (emptyScorer) ScoreStep(_ context.Context, _ []float32, m, _ int) (StepScore, error) {
	return StepScore{M: m}, nil
}
func (emptyScorer) Close() {}

// TestScorerLogProbsAreDistribution: at m = l and k = l a step's
// log-probabilities are the classifier's softmax, ranked descending,
// and sum to one.
func TestScorerLogProbsAreDistribution(t *testing.T) {
	inst, scr, _ := testModel(t)
	l := inst.Classifier.Categories()
	s := NewLocalScorer(inst.Classifier, scr, LocalScorerConfig{})
	defer s.Close()
	h := inst.Test[0]
	sc, err := s.ScoreStep(context.Background(), h, l, l)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Classes) != l {
		t.Fatalf("%d classes, want %d", len(sc.Classes), l)
	}
	p := make([]float32, l)
	activation.Softmax(p, inst.Classifier.Logits(h))
	var sum float64
	for i, c := range sc.Classes {
		if i > 0 && sc.LogProbs[i] > sc.LogProbs[i-1] {
			t.Fatalf("log-probs not descending at %d: %v", i, sc.LogProbs[:i+1])
		}
		if math.Abs(math.Exp(sc.LogProbs[i])-float64(p[c])) > 1e-6 {
			t.Fatalf("class %d: exp(logprob) %v, softmax %v", c, math.Exp(sc.LogProbs[i]), p[c])
		}
		sum += math.Exp(sc.LogProbs[i])
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

// TestBeamSessionFrames: a beam session emits one frame per step and
// finishes with the best hypothesis exposed through Tokens().
func TestBeamSessionFrames(t *testing.T) {
	testkit.NoLeaks(t)
	inst, scr, dec := testModel(t)
	svc := newTestService(inst, scr, dec, 0)
	defer svc.Shutdown()
	sess, err := svc.Open(Beam, 4, inst.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	fin, err := sess.Run(context.Background(), svc.MaxLen(), func(tok Token) error {
		if tok.Step != frames {
			t.Fatalf("frame %d has step %d", frames, tok.Step)
		}
		frames++
		return nil
	})
	if err != nil || !fin {
		t.Fatalf("run: fin=%v err=%v", fin, err)
	}
	if frames != dec.MaxLen() {
		t.Fatalf("emitted %d frames, want %d", frames, dec.MaxLen())
	}
	if got := sess.Tokens(); len(got) != dec.MaxLen() {
		t.Fatalf("best hypothesis has %d tokens, want %d", len(got), dec.MaxLen())
	}
	if sess.BestLogProb() >= 0 {
		t.Fatalf("best logprob %v not negative", sess.BestLogProb())
	}
}

// TestCandidateOverlap measures the property the cache exploits: the
// classes a decode step's screener selects are mostly classes recent
// steps already selected. The cache holds ~4×m rows — several steps
// of survivor history — so the relevant overlap is against the union
// of a recent-step window, not just t−1.
func TestCandidateOverlap(t *testing.T) {
	inst, scr, dec := testModel(t)
	one, _ := measureOverlap(inst, scr, dec, 24, 1)
	win, steps := measureOverlap(inst, scr, dec, 24, 4)
	t.Logf("candidate overlap over %d steps: %.1f%% vs previous step, %.1f%% vs 4-step window",
		steps, 100*one, 100*win)
	if win < 0.5 {
		t.Fatalf("windowed overlap %.2f too low for the cache to pay off", win)
	}
}

// measureOverlap decodes the probe corpus and returns the mean
// fraction of step-t candidates selected within the previous `window`
// steps.
func measureOverlap(inst *workload.Instance, scr *core.Screener, dec *workload.Decoder, m, window int) (float64, int) {
	sc := core.GetScratch()
	defer sc.Release()
	var sum float64
	var steps int
	for _, h0 := range inst.Test {
		var hist [][]int
		classify := func(h []float32) int {
			res := core.ClassifyApproxInto(inst.Classifier, scr, h, core.TopM(m), sc)
			if len(hist) > 0 {
				seen := map[int]bool{}
				for _, step := range hist {
					for _, c := range step {
						seen[c] = true
					}
				}
				shared := 0
				for _, c := range res.Candidates {
					if seen[c] {
						shared++
					}
				}
				sum += float64(shared) / float64(len(res.Candidates))
				steps++
			}
			hist = append(hist, append([]int(nil), res.Candidates...))
			if len(hist) > window {
				hist = hist[1:]
			}
			return res.Predict()
		}
		dec.Decode(h0, dec.MaxLen(), classify)
	}
	return sum / float64(steps), steps
}

// BenchmarkCandidateOverlap reports the overlap as a benchmark metric
// so the property is measured, not assumed, wherever benches run.
func BenchmarkCandidateOverlap(b *testing.B) {
	inst, scr, dec := testModel(b)
	var overlap float64
	for i := 0; i < b.N; i++ {
		overlap, _ = measureOverlap(inst, scr, dec, 24, 4)
	}
	b.ReportMetric(overlap, "overlap")
}

// demoModel is decode-demo-1k: l=1024, d=64, k=32 at INT8 over 16
// probes of 32 tokens, screened at m=192 — a screener strong enough
// (k = d/2) that its survivors contain the exact argmax nearly every
// step, the regime the decode service targets.
func demoModel(t testing.TB) (*workload.Instance, *core.Screener, *workload.Decoder) {
	t.Helper()
	inst := workload.Generate(
		workload.Spec{Name: "decode-demo-1k", Categories: 1024, Hidden: 64, LatentRank: 16, ZipfS: 1},
		workload.GenOptions{Seed: 7, Train: 512, Valid: 32, Test: 16})
	scr, _, err := core.TrainScreener(inst.Classifier, inst.Train, core.Config{
		Categories: 1024, Hidden: 64, Reduced: 32, Precision: quant.INT8, Seed: 7,
	}, core.TrainOptions{Epochs: 5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	return inst, scr, workload.NewDecoderFor(inst.Classifier, 7, 32)
}

// TestAgreementBLEU compares screened greedy decoding against
// full-classifier decoding on the probe corpus, as corpus BLEU: per-
// token screening quality is a gate, not a dashboard. Both shapes must
// stay at or above 0.50.
func TestAgreementBLEU(t *testing.T) {
	testkit.NoLeaks(t)
	for _, tc := range []struct {
		name  string
		model func(testing.TB) (*workload.Instance, *core.Screener, *workload.Decoder)
		topM  int
	}{
		{"decode-test", testModel, 24},
		{"decode-demo-1k", demoModel, 192},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst, scr, dec := tc.model(t)
			svc := NewService(Config{TopM: tc.topM}, dec, func() Scorer {
				return NewLocalScorer(inst.Classifier, scr, LocalScorerConfig{})
			})
			defer svc.Shutdown()
			var cands, refs [][]int
			for _, h0 := range inst.Test {
				got, _, _ := pumpAll(t, svc, Greedy, 1, h0)
				full := dec.Decode(h0, dec.MaxLen(), inst.Classifier.Predict)
				cands = append(cands, got)
				refs = append(refs, full)
			}
			bleu := metrics.BLEU(cands, refs)
			t.Logf("agreement BLEU %.4f", bleu)
			if bleu < 0.5 {
				t.Fatalf("agreement BLEU %.3f below the floor 0.50", bleu)
			}
		})
	}
}

// stubScorer lets the ladder tests dial step latency.
type stubScorer struct {
	sleep  time.Duration
	closes int
}

func (s *stubScorer) ScoreStep(_ context.Context, h []float32, m, k int) (StepScore, error) {
	if s.sleep > 0 {
		time.Sleep(s.sleep)
	}
	classes := make([]int, k)
	lps := make([]float64, k)
	for i := range classes {
		classes[i] = i
		lps[i] = -float64(i + 1)
	}
	return StepScore{Classes: classes, LogProbs: lps, M: m}, nil
}
func (s *stubScorer) Close() { s.closes++ }

// TestDeadlineLadder: slow steps walk m down to the floor; fast steps
// recover it back to top-m.
func TestDeadlineLadder(t *testing.T) {
	testkit.NoLeaks(t)
	inst, _, dec := testModel(t)
	stub := &stubScorer{sleep: 2 * time.Millisecond}
	svc := NewService(Config{TopM: 32, MFloor: 8, TokenBudget: time.Millisecond}, dec, func() Scorer { return stub })
	defer svc.Shutdown()
	sess, err := svc.Open(Greedy, 1, inst.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background(), 16, func(Token) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if sess.m != 8 {
		t.Fatalf("m = %d after sustained overrun, want floor 8", sess.m)
	}
	// Budget that every step easily meets: m recovers.
	stub.sleep = 0
	sess.budget = time.Second
	if _, err := sess.Run(context.Background(), 8, func(Token) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if sess.m != 32 {
		t.Fatalf("m = %d after recovery, want 32", sess.m)
	}
}

// TestVerifyCatchesCorruption plants a corrupted row in the cache and
// checks the periodic bit-exact verification repairs the step and
// resets the cache.
func TestVerifyCatchesCorruption(t *testing.T) {
	inst, scr, _ := testModel(t)
	s := NewLocalScorer(inst.Classifier, scr, LocalScorerConfig{CacheSlots: 64, VerifyEvery: 1})
	defer s.Close()
	h := inst.Test[0]
	if _, err := s.ScoreStep(context.Background(), h, 24, 1); err != nil {
		t.Fatal(err)
	}
	before := mCacheVerifyBad.Value()
	// Corrupt every cached row; the next verified step must notice.
	for i := range s.cache.rows {
		s.cache.rows[i] += 1
	}
	got, err := s.ScoreStep(context.Background(), h, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mCacheVerifyBad.Value() != before+1 {
		t.Fatal("verification did not flag the corrupted cache")
	}
	// reset() leaves all slots free.
	for _, y := range s.cache.class {
		if y != -1 {
			t.Fatal("cache was not reset after mismatch")
		}
	}
	// The repaired step must agree with the uncached reference.
	ref := NewLocalScorer(inst.Classifier, scr, LocalScorerConfig{CacheSlots: -1})
	defer ref.Close()
	want, err := ref.ScoreStep(context.Background(), h, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Classes[0] != want.Classes[0] {
		t.Fatalf("repaired step token %d, reference %d", got.Classes[0], want.Classes[0])
	}
}

// TestSessionAdmission: the MaxSessions limit turns into
// ErrSessionLimit, and closing a session frees a slot.
func TestSessionAdmission(t *testing.T) {
	testkit.NoLeaks(t)
	inst, _, dec := testModel(t)
	svc := NewService(Config{MaxSessions: 2}, dec, func() Scorer { return &stubScorer{} })
	defer svc.Shutdown()
	a, err := svc.Open(Greedy, 1, inst.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Open(Greedy, 1, inst.Test[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Open(Greedy, 1, inst.Test[2]); err != ErrSessionLimit {
		t.Fatalf("third open: %v, want ErrSessionLimit", err)
	}
	if err := svc.Close(a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Open(Greedy, 1, inst.Test[2]); err != nil {
		t.Fatalf("open after close: %v", err)
	}
	if err := svc.Close(a.ID); err != ErrNotFound {
		t.Fatalf("second close: %v, want ErrNotFound", err)
	}
}

// TestEvictionMidDecode: Shutdown with a session running stops it at
// its next token with ErrEvicted and refuses new sessions; the owner's
// Close then closes the scorer exactly once.
func TestEvictionMidDecode(t *testing.T) {
	testkit.NoLeaks(t)
	inst, _, dec := testModel(t)
	stub := &stubScorer{sleep: time.Millisecond}
	svc := NewService(Config{}, dec, func() Scorer { return stub })
	sess, err := svc.Open(Greedy, 1, inst.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Run(context.Background(), dec.MaxLen(), func(tok Token) error {
		if tok.Step == 0 {
			svc.Shutdown()
		}
		return nil
	})
	if err != ErrEvicted || sess.Step() != 1 {
		t.Fatalf("run ended with %v after %d steps, want ErrEvicted after 1", err, sess.Step())
	}
	if _, err := svc.Open(Greedy, 1, inst.Test[1]); err != ErrEvicted {
		t.Fatalf("open after shutdown: %v, want ErrEvicted", err)
	}
	if err := svc.Close(sess.ID); err != nil {
		t.Fatal(err)
	}
	if stub.closes != 1 || svc.Active() != 0 {
		t.Fatalf("scorer closed %d times, %d sessions left, want 1 and 0", stub.closes, svc.Active())
	}
}

// TestSessionHammer is the -race stress: concurrent sessions decoding
// while contexts cancel mid-stream and Shutdown lands mid-run. Every
// owner closes its session, so every scorer must be closed exactly
// once and no session may remain.
func TestSessionHammer(t *testing.T) {
	testkit.NoLeaks(t)
	inst, scr, dec := testModel(t)
	var opened, closed atomic.Int64
	svc := NewService(
		Config{MaxSessions: 32, TopM: 16},
		dec, func() Scorer {
			opened.Add(1)
			return &countingScorer{inner: NewLocalScorer(inst.Classifier, scr, LocalScorerConfig{}), onClose: func() { closed.Add(1) }}
		})
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
			defer cancel()
			sess, err := svc.Open(Greedy, 1, inst.Test[i%len(inst.Test)])
			if err != nil {
				return // admission limit or shut down — fine
			}
			defer svc.Close(sess.ID)
			sess.Run(ctx, dec.MaxLen(), func(tok Token) error {
				if tok.Step == 3 && i%3 == 0 {
					cancel() // client hangs up mid-stream
				}
				if tok.Step == 5 && i == 20 {
					svc.Shutdown()
				}
				time.Sleep(time.Millisecond)
				return nil
			})
		}(i)
	}
	wg.Wait()
	svc.Shutdown()
	if opened.Load() != closed.Load() {
		t.Fatalf("scorer leak: %d opened, %d closed", opened.Load(), closed.Load())
	}
	if svc.Active() != 0 {
		t.Fatalf("%d sessions survive their owners", svc.Active())
	}
}

type countingScorer struct {
	inner   Scorer
	onClose func()
}

func (c *countingScorer) ScoreStep(ctx context.Context, h []float32, m, k int) (StepScore, error) {
	return c.inner.ScoreStep(ctx, h, m, k)
}
func (c *countingScorer) Close() {
	c.inner.Close()
	c.onClose()
}

// TestSessionGarbage: in steady state a greedy session (Open, 32
// steps, Close) at an l ≥ 32k shape allocates less than l bytes, a
// quarter of one l-length float32 vector. A scorer that allocated
// its mixed vector per session made 4·l bytes of garbage each, so the
// heap grew with the sessions served.
func TestSessionGarbage(t *testing.T) {
	testkit.NoLeaks(t)
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under -race")
	}
	const l, d, steps = 32768, 32, 32
	inst := workload.Generate(
		workload.Spec{Name: "decode-garbage", Categories: l, Hidden: d, LatentRank: 8, ZipfS: 1},
		workload.GenOptions{Seed: 5, Train: 1, Valid: 1, Test: 1})
	scr, err := core.ProjectedScreener(inst.Classifier, core.Config{
		Categories: l, Hidden: d, Reduced: 8, Precision: quant.INT4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(Config{TopM: 24}, workload.NewDecoderFor(inst.Classifier, 7, steps), func() Scorer {
		return NewLocalScorer(inst.Classifier, scr, LocalScorerConfig{})
	})
	defer svc.Shutdown()
	session := func() {
		sess, err := svc.Open(Greedy, 1, inst.Test[0])
		if err != nil {
			t.Fatal(err)
		}
		if fin, err := sess.Run(context.Background(), steps, func(Token) error { return nil }); err != nil || !fin {
			t.Fatalf("run: finished %v, %v", fin, err)
		}
		if err := svc.Close(sess.ID); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // fill the pools
		session()
	}
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		session()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= l {
		t.Fatalf("a %d-step session at l = %d allocates %d bytes, want < %d", steps, l, per, l)
	}
}
