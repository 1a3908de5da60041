package main

import (
	"context"
	"math"
	"runtime"
	"sort"
	"time"

	"enmc/internal/cluster"
	"enmc/internal/core"
	"enmc/internal/decode"
	"enmc/internal/distributed"
	"enmc/internal/quant"
	"enmc/internal/tensor"
)

// Direct probes call each public kernel from one goroutine on the
// workload's own model and request vectors. A probe makes up to 200
// calls within its share of the budget and at least 5, and reports
// the median call.
const (
	probeMaxCalls = 200
	probeMinCalls = 5
)

// timeCalls returns the median duration of fn in microseconds. fn
// gets the call index so it can walk the sampled vectors.
func timeCalls(budget time.Duration, fn func(i int)) float64 {
	fn(0) // sizes lazily grown buffers
	var us []float64
	start := time.Now()
	for i := 0; i < probeMaxCalls && (i < probeMinCalls || time.Since(start) < budget); i++ {
		t0 := time.Now()
		fn(i)
		us = append(us, micros(time.Since(t0)))
	}
	return median(us)
}

// probe fills in the kernel metrics of every layer the workload runs.
// Byte and MAC rates are computed from shapes (packed INT4 weights,
// FP32 rows), not read from hardware counters.
func probe(sp spec, m *model, st *stack, in *inputs, budget time.Duration, vals map[string]float64) {
	// On the cluster every kernel runs on a shard: a third of the
	// rows under a third of the budget m.
	cls, scr := m.shards[0].Classifier, m.shards[0].Screener
	budgetM := (m.shape.m + len(m.shards) - 1) / len(m.shards)
	sel := core.TopM(budgetM)
	l, d, k := cls.Categories(), cls.Hidden(), scr.Cfg.Reduced
	vecs := in.vectors
	vec := func(i int) []float32 { return vecs[i%len(vecs)] }
	each := budget / 16

	sc := core.GetScratch()
	defer sc.Release()
	sc.MaxShards = 1 // the serial kernel: one core's time, which batch_gain divides by
	var candidates []float64
	classify := timeCalls(each, func(i int) {
		candidates = append(candidates, float64(len(core.ClassifyApproxInto(cls, scr, vec(i), sel, sc).Candidates)))
	})
	// The counter is the process's: the least of three rounds leaves out
	// what a health probe or a timer allocated meanwhile.
	allocs := math.Inf(1)
	for round := 0; round < 3; round++ {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		for i := 0; i < probeMinCalls; i++ {
			core.ClassifyApproxInto(cls, scr, vec(i), sel, sc)
		}
		runtime.ReadMemStats(&ms)
		allocs = min(allocs, float64(ms.Mallocs-mallocs)/probeMinCalls)
	}
	vals["core.allocs_per_op"] = allocs

	z := make([]float32, l)
	screen := timeCalls(each, func(i int) { scr.ScreenInto(z, vec(i), sc) })
	// The later stages run on one vector's real screening output, with
	// the candidates in ascending order as the pipeline gathers them.
	h := vec(0)
	scr.ScreenInto(z, h, sc)
	var cands []int
	selectUs := timeCalls(each, func(int) { cands = core.SelectCandidatesInto(z, sel, sc) })
	rows := append([]int(nil), cands...)
	sort.Ints(rows)
	exact := make([]float32, len(rows))
	exactUs := timeCalls(each, func(int) { cls.LogitsRowsInto(exact, rows, h) })
	vals["core.classify_us"] = classify
	vals["core.screen_us"] = screen
	vals["core.select_us"] = selectUs
	vals["core.exact_us"] = exactUs
	vals["core.self_us"] = classify - screen - selectUs - exactUs
	vals["core.candidates_mean"] = mean(candidates)

	batch := make([][]float32, batchItems)
	for i := range batch {
		batch[i] = vec(i)
	}
	batchUs := timeCalls(2*each, func(int) {
		_ = core.ClassifyBatchVisitCtx(context.Background(), cls, scr, batch, sel, nil, func(int, *core.Result, *core.Scratch) {})
	})
	vals["core.batch_items_per_s"] = batchItems / (batchUs / 1e6)
	vals["core.batch_gain"] = vals["core.batch_items_per_s"] * classify / 1e6 / float64(runtime.GOMAXPROCS(0))

	projected := make([]float32, k)
	vals["projection.apply_us"] = timeCalls(each, func(i int) { scr.P.Apply(projected, vec(i)) })
	var qv quant.Vector
	vals["quant.quantize_vec_us"] = timeCalls(each, func(int) { quant.QuantizeVectorInto(&qv, projected, scr.Cfg.Precision) })
	matvec := timeCalls(each, func(int) { scr.QW.MatVec(z, &qv) })
	vals["quant.matvec_us"] = matvec
	vals["quant.matvec_gbps"] = float64(scr.QW.Bytes()) / 1e9 / (matvec / 1e6)
	vals["quant.matvec_gmacs"] = float64(l) * float64(k) / 1e9 / (matvec / 1e6)
	vals["quant.weight_mb"] = float64(scr.QW.Bytes()) / 1e6

	var buf tensor.TopKBuf
	vals["tensor.topk_us"] = timeCalls(each, func(int) { tensor.TopKInto(z, budgetM, &buf) })
	gather := timeCalls(each, func(int) { cls.W.MatVecRows(exact, rows, h) })
	vals["tensor.gather_us"] = gather
	vals["tensor.gather_gbps"] = float64(len(rows)) * float64(d) * 4 / 1e9 / (gather / 1e6)

	// One admission is tens of nanoseconds, so a call times a thousand.
	vals["tenant.admit_ns"] = timeCalls(each, func(int) {
		for i := 0; i < 1000; i++ {
			st.tenants.Resolve(st.apiKey).Allow(1)
		}
	})

	if sp.clustered() {
		probeCluster(m, h, budgetM, each, vals)
	}
	if sp.kind == closedDecode {
		probeDecode(m, st, vecs, each, vals)
	}
}

// probeCluster times the wire codec on one real scatter payload (the
// request frame the router sends, the reply frame a shard returns)
// and the merge of the shards' candidate lists.
func probeCluster(m *model, h []float32, per int, each time.Duration, vals map[string]float64) {
	sh := m.shards[0]
	res := core.ClassifyApprox(sh.Classifier, sh.Screener, h, core.TopM(per))
	reply := &cluster.ScreenResponse{Offset: sh.Offset, Classes: sh.Classifier.Categories(), Version: sh.Version, Items: [][]cluster.WireCandidate{nil}}
	var pool []distributed.Candidate
	for j, c := range res.Candidates {
		reply.Items[0] = append(reply.Items[0], cluster.WireCandidate{Class: sh.Offset + c, Logit: res.Exact[j]})
		for s := range m.shards { // the merge sees one such list per shard
			pool = append(pool, distributed.Candidate{Class: s*sh.Classifier.Categories() + c, Logit: res.Exact[j]})
		}
	}
	batch := [][]float32{h}
	var reqFrame, respFrame []byte
	vals["cluster.codec_encode_us"] = timeCalls(each, func(int) {
		reqFrame, _ = cluster.AppendScreenRequest(reqFrame[:0], per, batch)
		respFrame, _ = cluster.AppendScreenResponse(respFrame[:0], reply)
	})
	vals["cluster.codec_decode_us"] = timeCalls(each, func(int) {
		ws := cluster.GetWireScratch()
		_, _, _ = cluster.DecodeScreenRequest(reqFrame, ws)
		_, _ = cluster.DecodeScreenResponse(respFrame, ws)
		ws.Release()
	})
	scratch := make([]distributed.Candidate, len(pool))
	vals["distributed.merge_us"] = timeCalls(each, func(int) {
		copy(scratch, pool) // Merge sorts in place
		distributed.Merge(scratch, topK)
	})
}

// probeDecode walks real decode trajectories through a scorer with
// the candidate cache at its default and one without it, a fresh
// scorer per session as the service does.
func probeDecode(m *model, st *stack, starts [][]float32, each time.Duration, vals map[string]float64) {
	sc := core.GetScratch()
	defer sc.Release()
	var sessions [][][]float32
	for _, h0 := range starts[:4] {
		_, states := st.decoder.DecodeWithStates(h0, decodeTokens, func(h []float32) int {
			return core.ClassifyApproxInto(m.cls, m.screener(), h, core.TopM(m.shape.m), sc).Predict()
		})
		sessions = append(sessions, states)
	}
	step := func(cfg decode.LocalScorerConfig) float64 {
		var us []float64
		for _, states := range sessions {
			scorer := decode.NewLocalScorer(m.cls, m.screener(), cfg)
			for _, h := range states {
				t0 := time.Now()
				_, _ = scorer.ScoreStep(context.Background(), h, m.shape.m, 1)
				us = append(us, micros(time.Since(t0)))
			}
			scorer.Close()
		}
		return median(us)
	}
	cached := step(decode.LocalScorerConfig{})
	uncached := step(decode.LocalScorerConfig{CacheSlots: -1})
	vals["decode.score_step_us"] = cached
	vals["decode.score_step_nocache_us"] = uncached
	vals["decode.cache_speedup"] = uncached / cached

	svc := decode.NewService(decode.Config{TopM: m.shape.m}, st.decoder, func() decode.Scorer {
		return decode.NewLocalScorer(m.cls, m.screener(), decode.LocalScorerConfig{})
	})
	defer svc.Shutdown()
	vals["decode.open_us"] = timeCalls(each, func(i int) {
		if sess, err := svc.Open(decode.Greedy, 1, starts[i%len(starts)]); err == nil {
			_ = svc.Close(sess.ID)
		}
	})
	next := make([]float32, m.shape.d)
	states := sessions[0]
	vals["workload.decoder_step_us"] = timeCalls(each, func(i int) {
		st.decoder.StepInto(next, states[i%len(states)], i%m.shape.l, i%decodeTokens)
	})
}
