package main

// Streaming-decode benchmark harness: -decode measures one screened
// autoregressive decode step (screen → top-m exact → argmax → state
// update) with the cross-step candidate cache off and on, and appends
// the result to the same governed trajectory as -perf. The
// acceptance comparison (cached vs uncached speedup) is WITHIN one
// record, so it stays valid across machines.
//
// Unlike the kernel shapes, the decode shape needs a *trained*
// screener over a structured workload: the cache hit rate, the
// windowed candidate overlap behind it, and the screened-vs-full
// agreement BLEU are properties of real screening behavior, not of
// kernel time, and random weights would make all three meaningless.
// -bleu-floor turns the BLEU measurement into a quality gate: CI
// fails when screened decoding stops agreeing with full decoding.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"enmc/internal/core"
	"enmc/internal/decode"
	"enmc/internal/metrics"
	"enmc/internal/quant"
	"enmc/internal/report"
	"enmc/internal/workload"
)

// decodeShape is one decode workload: l classes, d hidden, k reduced,
// top-m screening budget, maxLen tokens per session.
type decodeShape struct {
	Name    string
	L, D, K int
	M       int
	MaxLen  int
}

// The shape sits in the regime the decode service targets: a
// screener strong enough (k = d/2) that its top-m survivors contain
// the exact argmax nearly every step — screened decoding only agrees
// with full decoding when that holds, and the agreement-BLEU gate
// exists to notice when it stops holding.
var decodeShapes = []decodeShape{
	{Name: "decode-demo-1k", L: 1024, D: 64, K: 32, M: 192, MaxLen: 32},
}

// overlapWindow matches the candidate cache's effective history depth
// (the harness sizes the cache at 4×m slots, i.e. about four steps of
// survivors) — the overlap that predicts the hit rate is against the
// union of the last few steps, not just the previous one.
const overlapWindow = 4

func buildDecodeModel(s decodeShape) (*workload.Instance, *core.Screener, *workload.Decoder) {
	inst := workload.Generate(
		workload.Spec{Name: s.Name, Categories: s.L, Hidden: s.D, LatentRank: 16, ZipfS: 1},
		workload.GenOptions{Seed: 7, Train: 512, Valid: 32, Test: 16})
	scr, _, err := core.TrainScreener(inst.Classifier, inst.Train, core.Config{
		Categories: s.L, Hidden: s.D, Reduced: s.K, Precision: quant.INT8, Seed: 7,
	}, core.TrainOptions{Epochs: 5, Seed: 8})
	if err != nil {
		panic(err)
	}
	return inst, scr, workload.NewDecoderFor(inst.Classifier, 7, s.MaxLen)
}

// runDecodeBench measures every decode shape over `passes` interleaved
// passes and returns a schema-1 record for the governed trajectory.
func runDecodeBench(label string, passes int) report.PerfRecord {
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
	const minTime = 300 * time.Millisecond
	const maxIters = 100
	ctx := context.Background()
	for _, s := range decodeShapes {
		fmt.Fprintf(os.Stderr, "decode: building %s (l=%d d=%d k=%d m=%d len=%d)...\n",
			s.Name, s.L, s.D, s.K, s.M, s.MaxLen)
		inst, scr, dec := buildDecodeModel(s)
		h0 := inst.Test[0]

		res := report.PerfResult{Shape: s.Name, L: s.L, D: s.D, K: s.K, M: s.M, Passes: passes}

		// One full greedy session through a scorer: the timed unit is
		// MaxLen screened steps including the state update, reported per
		// token. The cached scorer keeps its cache across iterations —
		// steady-state warmth is exactly what the cached number claims.
		h := make([]float32, dec.Hidden())
		hn := make([]float32, dec.Hidden())
		session := func(sc decode.Scorer) {
			dec.NormalizeStartInto(h, h0)
			for t := 0; t < dec.MaxLen(); t++ {
				st, err := sc.ScoreStep(ctx, h, s.M, 1)
				if err != nil {
					panic(err)
				}
				dec.StepInto(hn, h, st.Classes[0], t)
				h, hn = hn, h
			}
		}
		uncachedScorer := decode.NewLocalScorer(inst.Classifier, scr, decode.LocalScorerConfig{CacheSlots: -1})
		cachedScorer := decode.NewLocalScorer(inst.Classifier, scr, decode.LocalScorerConfig{CacheSlots: 4 * s.M, VerifyEvery: -1})
		uncached := make(series, 0, passes)
		cached := make(series, 0, passes)
		for p := 0; p < passes; p++ {
			uncached = append(uncached, timeIt(minTime, maxIters, func() { session(uncachedScorer) }))
			cached = append(cached, timeIt(minTime, maxIters, func() { session(cachedScorer) }))
		}
		uncachedScorer.Close()
		cachedScorer.Close()
		steps := float64(dec.MaxLen())
		res.DecodeTokenNsOp = uncached.min() / steps
		res.DecodeCachedTokenNsOp = cached.min() / steps
		res.CV = map[string]float64{
			report.MetricDecodeToken:       uncached.cv(),
			report.MetricDecodeCachedToken: cached.cv(),
		}

		res.DecodeCacheHitRate = measureHitRate(ctx, inst, scr, dec, s.M)
		res.DecodeOverlap = measureDecodeOverlap(inst, scr, dec, s.M)
		res.DecodeAgreementBLEU = measureAgreementBLEU(ctx, inst, scr, dec, s.M)

		fmt.Fprintf(os.Stderr, "decode: %-14s tok %7.1f µs  cached %7.1f µs  speedup %.2fx  hit %.1f%%  overlap %.1f%%  bleu %.4f  (passes %d, max cv %.1f%%)\n",
			s.Name, res.DecodeTokenNsOp/1e3, res.DecodeCachedTokenNsOp/1e3,
			res.DecodeTokenNsOp/res.DecodeCachedTokenNsOp,
			100*res.DecodeCacheHitRate, 100*res.DecodeOverlap, res.DecodeAgreementBLEU,
			passes, 100*maxCV(res.CV))
		rec.Results = append(rec.Results, res)
	}
	return rec
}

// measureHitRate runs fresh cached sessions over the probe set and
// accumulates the scorer's own hit/miss accounting — one cold cache
// per sequence, so the number includes the warm-up misses a real
// session pays.
func measureHitRate(ctx context.Context, inst *workload.Instance, scr *core.Screener, dec *workload.Decoder, m int) float64 {
	var hits, misses int
	h := make([]float32, dec.Hidden())
	hn := make([]float32, dec.Hidden())
	for _, h0 := range inst.Test {
		sc := decode.NewLocalScorer(inst.Classifier, scr, decode.LocalScorerConfig{CacheSlots: 4 * m, VerifyEvery: -1})
		dec.NormalizeStartInto(h, h0)
		for t := 0; t < dec.MaxLen(); t++ {
			st, err := sc.ScoreStep(ctx, h, m, 1)
			if err != nil {
				panic(err)
			}
			hits += st.CacheHits
			misses += st.CacheMisses
			dec.StepInto(hn, h, st.Classes[0], t)
			h, hn = hn, h
		}
		sc.Close()
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// measureDecodeOverlap reports the mean fraction of each step's
// screener survivors already surfaced within the previous
// overlapWindow steps of the same sequence — the temporal locality
// the candidate cache converts into hits.
func measureDecodeOverlap(inst *workload.Instance, scr *core.Screener, dec *workload.Decoder, m int) float64 {
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
			if len(hist) > overlapWindow {
				hist = hist[1:]
			}
			return res.Predict()
		}
		dec.Decode(h0, dec.MaxLen(), classify)
	}
	if steps == 0 {
		return 0
	}
	return sum / float64(steps)
}

// measureAgreementBLEU decodes every probe sequence twice — screened
// (the default scorer, the serving path) and full (exact argmax over all l
// classes) — and scores the screened sequences against the full ones
// as corpus BLEU. This is the committed quality gate's number.
func measureAgreementBLEU(ctx context.Context, inst *workload.Instance, scr *core.Screener, dec *workload.Decoder, m int) float64 {
	var cands, refs [][]int
	for _, h0 := range inst.Test {
		sc := decode.NewLocalScorer(inst.Classifier, scr, decode.LocalScorerConfig{})
		screened := dec.Decode(h0, dec.MaxLen(), func(h []float32) int {
			st, err := sc.ScoreStep(ctx, h, m, 1)
			if err != nil {
				panic(err)
			}
			return st.Classes[0]
		})
		sc.Close()
		full := dec.Decode(h0, dec.MaxLen(), inst.Classifier.Predict)
		cands = append(cands, screened)
		refs = append(refs, full)
	}
	return metrics.BLEU(cands, refs)
}
