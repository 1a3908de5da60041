package main

import (
	"fmt"
	"time"
)

// perLayerUnits lists every per-layer metric with its unit, in
// BENCHMARK.json's order. The prefix is the package the number
// belongs to; "loadgen" is the harness itself. A layer the workload
// bypasses reports 0 for its metrics.
var perLayerUnits = [][2]string{
	{"loadgen.sent", "count"},
	{"loadgen.ok", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.lat_p95_ms", "ms"},
	{"loadgen.cpu_ms_per_op", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.trace_overhead_frac", "frac"},
	{"loadgen.unattributed_frac", "frac"},
	{"server.handler_us_p50", "us"},
	{"server.transport_us_p50", "us"},
	{"server.queue_us_p50", "us"},
	{"server.queue_us_p95", "us"},
	{"server.batch_size_mean", "count"},
	{"server.backend_us_p50", "us"},
	{"server.backend_calls", "count"},
	{"server.self_us_p50", "us"},
	{"server.degraded_frac", "frac"},
	{"server.status_429", "count"},
	{"server.status_5xx", "count"},
	{"server.req_bytes_mean", "B"},
	{"server.resp_bytes_mean", "B"},
	{"tenant.admit_ns", "ns"},
	{"core.classify_us", "us"},
	{"core.screen_us", "us"},
	{"core.select_us", "us"},
	{"core.exact_us", "us"},
	{"core.self_us", "us"},
	{"core.candidates_mean", "count"},
	{"core.allocs_per_op", "count"},
	{"core.batch_items_per_s", "1/s"},
	{"core.batch_gain", "x"},
	{"projection.apply_us", "us"},
	{"quant.quantize_vec_us", "us"},
	{"quant.matvec_us", "us"},
	{"quant.matvec_gbps", "GB/s"},
	{"quant.matvec_gmacs", "GMAC/s"},
	{"quant.weight_mb", "MB"},
	{"tensor.topk_us", "us"},
	{"tensor.gather_us", "us"},
	{"tensor.gather_gbps", "GB/s"},
	{"cluster.rpc_us_p50", "us"},
	{"cluster.rpc_us_p95", "us"},
	{"cluster.slowest_shard_us_p50", "us"},
	{"cluster.rpc_per_req", "count"},
	{"cluster.worker_handler_us_p50", "us"},
	{"cluster.router_self_us_p50", "us"},
	{"cluster.wire_req_bytes", "B"},
	{"cluster.wire_resp_bytes", "B"},
	{"cluster.codec_encode_us", "us"},
	{"cluster.codec_decode_us", "us"},
	{"cluster.partial_frac", "frac"},
	{"cluster.retries", "count"},
	{"distributed.merge_us", "us"},
	{"decode.score_step_us", "us"},
	{"decode.score_step_nocache_us", "us"},
	{"decode.cache_speedup", "x"},
	{"decode.cache_hit_rate", "frac"},
	{"decode.open_us", "us"},
	{"decode.m_mean", "count"},
	{"decode.degraded_frac", "frac"},
	{"decode.gap_p99_ms", "ms"},
	{"workload.decoder_step_us", "us"},
}

// runTraced produces the per-layer metrics: a traced window on a
// stack with every tap installed, bracketed by two short windows on an
// untapped stack over the same model, then the direct kernel probes.
// The bracket makes the overhead figure fair: memory a process has
// just touched serves ~15 % faster for its first ten seconds on the
// recording host, so a plain window that only came first would always
// look faster than the traced one.
func runTraced(sp spec, sh shape, opt runOptions, conns int, rec *record) (*tracer, error) {
	m, plainSt, _, err := setUp(sp, sh, nil, 1)
	if err != nil {
		return nil, err
	}
	defer plainSt.stop()
	tr := newTracer()
	st, err := startStack(sp, m, tr)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	in := makeInputs(sp, m, opt.seed)
	v := &verifier{sp: sp, m: m, in: in, seed: opt.seed}
	window := func(st *stack, share float64) (window, summary, error) {
		v.st = st
		lg := newLoadgen(sp, st, in, conns)
		defer lg.close()
		if err := lg.warmUp(); err != nil {
			return window{}, summary{}, err
		}
		w := measure(lg, time.Duration(opt.seconds*share*float64(time.Second)), st.tr != nil)
		return w, summarize(sp, v, w, lg.conns), nil
	}
	_, before, err := window(plainSt, 0.125)
	if err != nil {
		return nil, err
	}
	w, s, err := window(st, 0.5)
	if err != nil {
		return nil, err
	}
	_, after, err := window(plainSt, 0.125)
	if err != nil {
		return nil, err
	}
	plainLat := append(before.lat, after.lat...)
	if len(s.lat) == 0 || len(plainLat) == 0 {
		return nil, fmt.Errorf("traced run: no request was answered correctly")
	}

	vals := map[string]float64{
		"loadgen.sent":                float64(s.attempted),
		"loadgen.ok":                  float64(s.attempted - s.failed),
		"loadgen.failed":              float64(s.failed),
		"loadgen.lat_p95_ms":          quantile(s.lat, 0.95),
		"loadgen.cpu_ms_per_op":       millis(w.cpu) / float64(s.attempted-s.failed),
		"loadgen.trace_overhead_frac": median(s.lat)/median(plainLat) - 1,
	}
	rec.Samples["loadgen.lat_p95_ms"] = len(s.lat)
	rec.Samples["loadgen.trace_overhead_frac"] = min(len(s.lat), len(plainLat))
	var late []float64
	for _, r := range w.replies {
		if r.free < r.due { // a connection was free: the send time was the generator's choice
			late = append(late, millis(r.sent-r.due))
		}
	}
	vals["loadgen.late_p99_ms"] = quantile(late, 0.99)
	rec.Samples["loadgen.late_p99_ms"] = len(late)
	if vals["loadgen.late_p99_ms"] > 5 {
		rec.Notes = append(rec.Notes, "invalid: the load generator fired more than 5 ms late at p99")
	}
	layerMetrics(sp, sh, tr, w, vals, rec)
	probe(sp, m, st, in, time.Duration(opt.seconds*0.25*float64(time.Second)), vals)

	rec.Result = result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metric{}}
	for _, nu := range perLayerUnits {
		rec.Result.Metrics[nu[0]] = metric{Value: vals[nu[0]], Unit: nu[1]}
	}
	return tr, nil
}

// layerMetrics turns the traced window's spans and reply fields into
// the distribution metrics. It also adds the queue spans, which only
// the reply's queue_us can place.
func layerMetrics(sp spec, sh shape, tr *tracer, w window, vals map[string]float64, rec *record) {
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	backendOf := tr.backendOf
	tr.mu.Unlock()

	byID := map[int32]*span{}
	handlerOf := map[int32]*span{} // request → front-end handler span
	children := map[int32][]*span{}
	scoreNs := map[int32]int64{} // request → time inside the scorer
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s)
		switch s.Name {
		case spanHandler:
			handlerOf[s.Req] = s
		case spanScore:
			scoreNs[s.Req] += s.End - s.Start
		}
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }

	var (
		handler, transport, queue, backend, self []float64
		rpc, slowest, worker, routerSelf         []float64
		batchSizes, reqBytes, respBytes          []float64
		wireReq, wireResp                        []float64
		unattributed                             []float64
		gaps                                     []float64
		degraded, partial, answered              int
		s429, s5xx                               int
		calls                                    = map[int32]bool{}
		rpcs                                     int
	)
	for i := range w.replies {
		r := &w.replies[i]
		switch {
		case r.status == 429:
			s429++
		case r.status >= 500:
			s5xx++
		}
		h := handlerOf[r.req]
		if !r.answered() || h == nil {
			continue
		}
		answered++
		lat := int64(r.done - r.due)
		hd := h.End - h.Start
		handler = append(handler, us(hd))
		transport = append(transport, us(lat-int64(r.sent-r.due)-hd))
		unattributed = append(unattributed, float64(lat-int64(r.sent-r.due)-hd)/float64(lat))
		reqBytes = append(reqBytes, float64(h.In))
		respBytes = append(respBytes, float64(h.Out))

		var q int64
		if r.single != nil {
			q = r.single.QueueUs * 1e3
			queue = append(queue, us(q))
			batchSizes = append(batchSizes, float64(r.single.BatchSize))
			if r.single.Degraded {
				degraded++
			}
			if r.single.Partial {
				partial++
			}
		}
		if r.batch != nil && r.batch.Degraded {
			degraded++
		}
		for j := 1; j < len(r.frames); j++ {
			gaps = append(gaps, millis(r.frames[j].at-r.frames[j-1].at))
		}
		var bd int64
		if b := byID[backendOf[r.req]]; b != nil {
			bd = b.End - b.Start
			backend = append(backend, us(bd))
			if q > 0 {
				tr.record(span{Name: spanQueue, ID: tr.newID(), Parent: h.ID, Req: r.req, Start: max(h.Start, b.Start-q), End: b.Start})
			}
			if !calls[b.ID] {
				calls[b.ID] = true
				var slow int64
				for _, c := range children[b.ID] {
					if c.Name != spanRPC {
						continue
					}
					rpcs++
					d := c.End - c.Start
					slow = max(slow, d)
					rpc = append(rpc, us(d))
					wireReq = append(wireReq, float64(c.In))
					wireResp = append(wireResp, float64(c.Out))
					for _, wk := range children[c.ID] {
						worker = append(worker, us(wk.End-wk.Start))
					}
				}
				if slow > 0 {
					slowest = append(slowest, us(slow))
					routerSelf = append(routerSelf, us(bd-slow))
				}
			}
		}
		self = append(self, us(hd-q-bd-scoreNs[r.req]))
	}

	vals["loadgen.unattributed_frac"] = median(unattributed)
	vals["server.handler_us_p50"] = median(handler)
	vals["server.transport_us_p50"] = median(transport)
	vals["server.queue_us_p50"] = median(queue)
	vals["server.queue_us_p95"] = quantile(queue, 0.95)
	vals["server.batch_size_mean"] = mean(batchSizes)
	vals["server.backend_us_p50"] = median(backend)
	vals["server.backend_calls"] = float64(len(calls))
	vals["server.self_us_p50"] = median(self)
	vals["server.degraded_frac"] = frac(degraded, answered)
	vals["server.status_429"] = float64(s429)
	vals["server.status_5xx"] = float64(s5xx)
	vals["server.req_bytes_mean"] = mean(reqBytes)
	vals["server.resp_bytes_mean"] = mean(respBytes)
	vals["cluster.rpc_us_p50"] = median(rpc)
	vals["cluster.rpc_us_p95"] = quantile(rpc, 0.95)
	vals["cluster.slowest_shard_us_p50"] = median(slowest)
	vals["cluster.rpc_per_req"] = frac(rpcs, len(calls))
	vals["cluster.worker_handler_us_p50"] = median(worker)
	vals["cluster.router_self_us_p50"] = median(routerSelf)
	vals["cluster.wire_req_bytes"] = mean(wireReq)
	vals["cluster.wire_resp_bytes"] = mean(wireResp)
	vals["cluster.partial_frac"] = frac(partial, answered)
	if sp.clustered() {
		vals["cluster.retries"] = float64(rpcs - sp.shards*len(calls))
	}
	for name, xs := range map[string][]float64{
		"server.handler_us_p50": handler, "server.queue_us_p95": queue, "server.backend_us_p50": backend,
		"cluster.rpc_us_p95": rpc, "cluster.slowest_shard_us_p50": slowest, "decode.gap_p99_ms": gaps,
	} {
		rec.Samples[name] = len(xs)
	}

	if sp.kind == closedDecode {
		var steps, hits, misses, mSum, low int
		for i := range spans {
			if s := &spans[i]; s.Name == spanScore {
				steps++
				hits += int(s.In)
				misses += int(s.Out)
				mSum += int(s.N)
				if int(s.N) < sh.m {
					low++
				}
			}
		}
		vals["decode.cache_hit_rate"] = frac(hits, hits+misses)
		vals["decode.m_mean"] = frac(mSum, steps)
		vals["decode.degraded_frac"] = frac(low, steps)
		vals["decode.gap_p99_ms"] = quantile(gaps, 0.99)
	}
}
