package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what -out keeps of a run: the result plus what is needed
// to tell two sets of runs apart and to judge a percentile.
type record struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Host     hostInfo       `json:"host"`
	Samples  map[string]int `json:"samples"` // sample count behind each percentile
	Notes    []string       `json:"notes,omitempty"`
	Result   result         `json:"result"`
}

// endToEndUnits lists every end-to-end metric with its unit, in
// BENCHMARK.json's order; the self-test holds the two in step.
var endToEndUnits = [][2]string{
	{"setup_s", "s"},
	{"cls_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"ttft_p50_ms", "ms"},
	{"within_limit_frac", "frac"},
	{"ok_frac", "frac"},
	{"recall_at_5", "frac"},
	{"top1_agreement", "frac"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
}

// maxProcs is the ISSUE's load sizing: one scheduler thread and one
// client connection per core, capped at four.
func maxProcs() int { return min(runtime.NumCPU(), 4) }

// setupReps is how often set-up is repeated for its median. A model
// whose weights page-fault for seconds (xc670k: 2 GB) is built once.
func setupReps(sh shape) int {
	if int64(sh.l)*int64(sh.d)*4 > 256<<20 {
		return 1
	}
	return 3
}

// setUp builds the model and starts the stack reps times, timing each
// from nothing to "can answer a request", and keeps the last.
func setUp(sp spec, sh shape, tr *tracer, reps int) (*model, *stack, float64, error) {
	var (
		m     *model
		st    *stack
		times []float64
	)
	for i := 0; i < reps; i++ {
		if st != nil {
			st.stop()
			m, st = nil, nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if m, err = buildModel(sh, sp.shards); err != nil {
			return nil, nil, 0, err
		}
		if st, err = startStack(sp, m, tr); err != nil {
			return nil, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return m, st, median(times), nil
}

// window is one measured interval of offered load.
type window struct {
	replies []reply
	elapsed time.Duration // window start to last reply
	cpu     time.Duration
	allocs  uint64 // heap allocations, load generator included
	peakRSS float64
}

// measure runs one window. The collector and the OS get their memory
// back first, so neither set-up garbage nor a collection of it falls
// inside the window.
func measure(lg *loadgen, d time.Duration, traced bool) window {
	runtime.GC()
	debug.FreeOSMemory()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rss := startRSSSampler()
	cpu0 := cpuTime()
	if traced {
		lg.st.tr.on.Store(true)
		defer lg.st.tr.on.Store(false)
	}
	replies := lg.run(d, traced)
	w := window{replies: replies, cpu: cpuTime() - cpu0, peakRSS: rss.peakMB()}
	runtime.ReadMemStats(&after)
	w.allocs = after.Mallocs - before.Mallocs
	if lg.sp.kind == openSingle {
		w.elapsed = d // the schedule fills d; only a backlog makes it longer
	}
	for _, r := range replies {
		w.elapsed = max(w.elapsed, r.done)
	}
	return w
}

// summary is what both the end-to-end and the harness-layer metrics
// are computed from.
type summary struct {
	attempted, failed int // answers: classifications or tokens
	clsPerS           float64
	lat, ttft         []float64 // ms
	within            int
}

// summarize scores a window's replies. Latency is per request on the
// classify workloads and per token gap on decode; the first token of
// a session is judged against three times the gap limit.
func summarize(sp spec, v *verifier, w window, conns int) summary {
	var s summary
	okByClient := make([]int, conns)
	endByClient := make([]time.Duration, conns)
	okTotal := 0
	for i := range w.replies {
		r := &w.replies[i]
		s.attempted += r.items
		ok := v.okItems(r)
		s.failed += r.items - ok
		okTotal += ok
		okByClient[r.client] += ok
		endByClient[r.client] = max(endByClient[r.client], r.done)
		if ok == 0 {
			continue
		}
		s.ttft = append(s.ttft, millis(r.first-r.due))
		if sp.kind == closedDecode {
			if r.first-r.due <= 3*sp.limit {
				s.within++
			}
			for j := 1; j < len(r.frames); j++ {
				gap := r.frames[j].at - r.frames[j-1].at
				s.lat = append(s.lat, millis(gap))
				if gap <= sp.limit {
					s.within++
				}
			}
			continue
		}
		s.lat = append(s.lat, millis(r.done-r.due))
		if r.done-r.due <= sp.limit {
			s.within += r.items
		}
	}
	if sp.kind == openSingle {
		// This is the offered rate unless replies are still arriving
		// after the schedule's end.
		s.clsPerS = float64(okTotal) / w.elapsed.Seconds()
	} else {
		// Each closed-loop client is rated up to its own last reply, so
		// no partial request at the window's edge is counted or cut.
		for c := range okByClient {
			if endByClient[c] > 0 {
				s.clsPerS += float64(okByClient[c]) / endByClient[c].Seconds()
			}
		}
	}
	return s
}

// runOptions are a run's command-line inputs.
type runOptions struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	shape    string // overrides the workload's shape; the self-test runs at "tiny"
}

// run executes one workload and returns its record: the end-to-end
// metrics of an untraced window, or with opt.trace the per-layer
// metrics of a traced one.
func run(opt runOptions) (*record, error) {
	sp, err := specByName(opt.workload)
	if err != nil {
		return nil, err
	}
	if opt.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if opt.shape != "" {
		sp.shape = opt.shape
	}
	sh := shapes[sp.shape]
	runtime.GOMAXPROCS(maxProcs())
	conns := maxProcs()
	rec := &record{
		Workload: sp.name, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		Host: hostFingerprint(), Samples: map[string]int{},
	}
	if opt.trace {
		tr, err := runTraced(sp, sh, opt, conns, rec)
		if err != nil {
			return nil, err
		}
		return rec, rec.save(opt.out, tr)
	}

	m, st, setupS, err := setUp(sp, sh, nil, setupReps(sh))
	if err != nil {
		return nil, err
	}
	defer st.stop()
	in := makeInputs(sp, m, opt.seed)
	q, err := measureQuality(sp, m, st)
	if err != nil {
		return nil, err
	}
	lg := newLoadgen(sp, st, in, conns)
	defer lg.close()
	if err := lg.warmUp(); err != nil {
		return nil, err
	}
	w := measure(lg, time.Duration(opt.seconds*float64(time.Second)), false)
	s := summarize(sp, &verifier{sp: sp, m: m, st: st, in: in, seed: opt.seed}, w, lg.conns)

	ok := s.attempted - s.failed
	if ok == 0 {
		return nil, fmt.Errorf("no request of %d was answered correctly", s.attempted)
	}
	values := map[string]float64{
		"setup_s":           setupS,
		"cls_per_s":         s.clsPerS,
		"lat_p50_ms":        median(s.lat),
		"ttft_p50_ms":       median(s.ttft),
		"within_limit_frac": frac(s.within, s.attempted),
		"ok_frac":           frac(ok, s.attempted),
		"recall_at_5":       q.recallAt5,
		"top1_agreement":    q.top1,
		"allocs_per_op":     float64(w.allocs) / float64(ok),
		"peak_rss_mb":       w.peakRSS,
	}
	rec.Samples["lat_p50_ms"] = len(s.lat)
	rec.Samples["ttft_p50_ms"] = len(s.ttft)
	rec.Result = result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metric{}}
	for _, nu := range endToEndUnits {
		rec.Result.Metrics[nu[0]] = metric{Value: values[nu[0]], Unit: nu[1]}
	}
	return rec, rec.save(opt.out, nil)
}

// save writes a record (and, for a traced run, its Chrome trace)
// under dir; no dir, nothing kept.
func (rec *record) save(dir string, tr *tracer) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t := 0
	if rec.Trace {
		t = 1
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", rec.Workload, rec.Seed, t))
	if tr != nil {
		if err := tr.writeChrome(stem + ".chrome.json"); err != nil {
			return err
		}
	}
	return writeJSON(stem+".json", rec)
}
