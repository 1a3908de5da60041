package testkit_test

// The conformance table: every execution path that claims to return
// the paper's Fig. 6 answer — approximate logits everywhere, exact
// ones at the m screened candidates — must return it bit for bit.
// Each row is one path; each compares its top-k (every entry's class
// and score bits) and its predicted class against one reference:
//
//   - single-node rows against core.ClassifyApprox, ranked by
//     tensor.TopK over the mixed vector, and Result.Predict;
//   - sharded rows against distributed.Classify over the same shards
//     and per-shard budget — and, at m ≥ l, against the single-node
//     full-budget answer as well.
//
// The axes: INT2/INT4/INT8; top-m and threshold selection for the
// drivers that take a Selection; batch sizes 0…9 (around
// quant.BatchTile, at k = 5) and the whole item list; l = 203, not a multiple
// of 8 or of the shard count; d a multiple of 4 and not; m ∈ {1,
// typical, l, > l}; k ∈ {0, 1, 5, > m, > l}; ±Inf entries in the
// inputs of every row and NaN entries on the single-node rows
// (distributed.Merge has no defined order for NaN logits, and JSON
// cannot carry a NaN to a server). `make test-purego` runs the table
// with the assembly kernels compiled out.
//
// TestShardSliceIdentity holds every row shard to its rows of the
// whole screener's output, the invariant the sharded rows rest on.
//
// TestNonFiniteInputs covers what the HTTP endpoints receive instead
// of a vector a float32 can hold: a NaN token, a value past float32's
// range and the string "Infinity" each answer 400 wherever a vector
// goes.
//
// A new execution path adds a row here. When a row fails, fix the
// path, not the row.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"enmc"
	"enmc/internal/activation"
	"enmc/internal/cluster"
	"enmc/internal/core"
	"enmc/internal/decode"
	"enmc/internal/distributed"
	"enmc/internal/quant"
	"enmc/internal/server"
	"enmc/internal/tensor"
	"enmc/internal/testkit"
	"enmc/internal/testkit/fleet"
	"enmc/internal/workload"
)

const (
	confClasses = 203 // three edge rows past the last 8-row group; 203 = 68+68+67 over 3 shards
	confShards  = 3
	confClean   = 9 // clean test vectors per model: batch sizes up to 2·BatchTile+1
)

// entry is one ranked class and the bits of its score: a logit's
// Float32bits, or a log-probability's Float64bits.
type entry struct {
	Class int
	Bits  uint64
}

// answer is what a path returns for one item. Pred is -1 when the path
// reports no class (a decode step asked for no ranked classes).
type answer struct {
	Top  []entry
	Pred int
}

func (a answer) equal(b answer) bool {
	if a.Pred != b.Pred || len(a.Top) != len(b.Top) {
		return false
	}
	for i := range a.Top {
		if a.Top[i] != b.Top[i] {
			return false
		}
	}
	return true
}

func logitEntry(class int, v float32) entry {
	return entry{Class: class, Bits: uint64(math.Float32bits(v))}
}

// model is one (shape, precision) point of the table: a global model,
// its row shards, and the items every row scores.
type model struct {
	name   string
	cls    *core.Classifier
	scr    *core.Screener
	shards []distributed.Shard
	// items interleaves confClean clean vectors with copies poisoned by
	// +Inf, -Inf and NaN entries; finite holds the items without a NaN.
	items, finite [][]float32
}

func newModel(t *testing.T, d int, bits quant.Bits) *model {
	t.Helper()
	const l = confClasses
	seed := uint64(d)*10 + uint64(bits)
	inst := workload.Generate(
		workload.Spec{Name: "conformance", Categories: l, Hidden: d, LatentRank: 8, ZipfS: 1},
		workload.GenOptions{Seed: seed, Train: 1, Valid: 1, Test: confClean})
	cfg := core.Config{Categories: l, Hidden: d, Reduced: max(d/4, 1), Precision: bits, Seed: seed}
	scr, err := core.ProjectedScreener(inst.Classifier, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := distributed.ShardClassifier(inst.Classifier, scr, confShards)
	if err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		shards[i].Version = "conformance"
	}
	f := &model{name: fmt.Sprintf("%v/l=%d,d=%d", bits, l, d), cls: inst.Classifier, scr: scr, shards: shards}
	poison := []float32{float32(math.Inf(1)), float32(math.NaN()), float32(math.Inf(-1))}
	for i, h := range inst.Test {
		f.items = append(f.items, h)
		if i < len(poison) {
			bad := append([]float32(nil), h...)
			bad[(7*i+3)%d] = poison[i]
			f.items = append(f.items, bad)
		}
	}
	for _, h := range f.items {
		if !hasNaN(h) {
			f.finite = append(f.finite, h)
		}
	}
	return f
}

func hasNaN(x []float32) bool {
	for _, v := range x {
		if v != v {
			return true
		}
	}
	return false
}

// run is a path under test: it scores batch and returns one answer per
// item. It reports path-specific contract violations (an item visited
// twice, a partial merge) through t.
type run func(t *testing.T, batch [][]float32, sel core.Selection, k int) []answer

// row is one execution path in the table.
type row struct {
	name string
	// threshold: the path takes a Selection, so threshold selection is
	// on its axis; otherwise it takes m and runs top-m only.
	threshold bool
	// batched: the path takes a batch, so every batch size is run;
	// otherwise items are scored one by one, so the whole list is.
	batched bool
	// logProbs: the path reports log-probabilities under the mixed
	// softmax instead of logits.
	logProbs bool
	run      run
}

// TestConformance runs every row over every model and axis.
func TestConformance(t *testing.T) {
	for _, d := range []int{32, 30} {
		for _, bits := range []quant.Bits{quant.INT2, quant.INT4, quant.INT8} {
			f := newModel(t, d, bits)
			t.Run(f.name, func(t *testing.T) {
				testkit.NoLeaks(t)
				conformSingleNode(t, f)
				conformSharded(t, f)
			})
		}
	}
}

// TestShardSliceIdentity is the invariant a row shard rests on: every
// shard of an n-way split screens exactly rows [off,end) of what the
// whole screener screens, bit for bit, at every precision and with
// per-row or per-tensor scales. l = 203 is a multiple of none of 2,
// 3, 4, 8 or 64.
func TestShardSliceIdentity(t *testing.T) {
	const l, d = confClasses, 32
	inst := workload.Generate(
		workload.Spec{Name: "slices", Categories: l, Hidden: d, LatentRank: 8, ZipfS: 1},
		workload.GenOptions{Seed: 5, Train: 1, Valid: 1, Test: confClean})
	sc := core.GetScratch()
	defer sc.Release()
	for _, bits := range []quant.Bits{quant.INT2, quant.INT4, quant.INT8} {
		for _, perTensor := range []bool{false, true} {
			cfg := core.Config{Categories: l, Hidden: d, Reduced: d / 4, Precision: bits, PerTensor: perTensor, Seed: 9}
			scr, err := core.ProjectedScreener(inst.Classifier, cfg)
			if err != nil {
				t.Fatal(err)
			}
			whole := make([]float32, l)
			for n := 1; n <= 4; n++ {
				shards, err := distributed.ShardClassifier(inst.Classifier, scr, n)
				if err != nil {
					t.Fatal(err)
				}
				for _, h := range inst.Test {
					scr.ScreenInto(whole, h, sc)
					for _, sh := range shards {
						got := make([]float32, sh.Screener.Cfg.Categories)
						sh.Screener.ScreenInto(got, h, sc)
						for j, v := range got {
							if w := whole[sh.Offset+j]; math.Float32bits(v) != math.Float32bits(w) {
								t.Fatalf("%v per-tensor=%v, %d shards: row %d = %v, whole screener %v",
									bits, perTensor, n, sh.Offset+j, v, w)
							}
						}
					}
				}
			}
		}
	}
}

// TestNonFiniteInputs sends each non-finite token in h on
// /v1/classify, in one item of /v1/classify_batch and in h0 on
// /v1/decode: every one answers 400, never 200 or 5xx. The finite row
// is the control: the same bodies with a plain number answer 200.
func TestNonFiniteInputs(t *testing.T) {
	testkit.NoLeaks(t)
	f := newModel(t, 32, quant.INT4)
	local, err := server.NewLocal(f.cls, f.scr)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(local, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	svc := decode.NewService(decode.Config{}, workload.NewDecoderFor(f.cls, 7, 4), func() decode.Scorer {
		return decode.NewLocalScorer(f.cls, f.scr, decode.LocalScorerConfig{})
	})
	defer svc.Shutdown()
	s.SetDecode(svc)

	vec := func(tok string) string {
		v := strings.Split(strings.Repeat("0.5,", 32), ",")[:32]
		v[3] = tok
		return "[" + strings.Join(v, ",") + "]"
	}
	for _, in := range []struct {
		name, tok string
		want      int
	}{
		{"finite", "0.25", http.StatusOK},
		{"NaN", "NaN", http.StatusBadRequest},
		{"float32 overflow", "1e39", http.StatusBadRequest},
		{"Infinity", `"Infinity"`, http.StatusBadRequest},
	} {
		for _, req := range []struct{ path, body string }{
			{"/v1/classify", `{"h":` + vec(in.tok) + `,"top_k":3}`},
			{"/v1/classify_batch", `{"batch":[` + vec("0.5") + `,` + vec(in.tok) + `],"top_k":3}`},
			{"/v1/decode", `{"h0":` + vec(in.tok) + `,"max_tokens":2}`},
		} {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.path, strings.NewReader(req.body)))
			if rec.Code != in.want {
				t.Errorf("%s in %s: status %d, want %d: %s", in.name, req.path, rec.Code, in.want, rec.Body)
			}
		}
	}
}

func budgets() []int { return []int{1, 16, confClasses, confClasses + 5} }

func ranks(m int) []int { return []int{0, 1, 5, m + 1, confClasses + 3} }

// conformSingleNode holds every single-node path to core.ClassifyApprox.
func conformSingleNode(t *testing.T, f *model) {
	rows := singleNodeRows(t, f)
	for _, m := range budgets() {
		sels := []core.Selection{core.TopM(m), core.Threshold(core.CalibrateThreshold(f.scr, f.items[:1], m))}
		for _, sel := range sels {
			ref := make([]*core.Result, len(f.items))
			for i, h := range f.items {
				ref[i] = core.ClassifyApprox(f.cls, f.scr, h, sel)
			}
			if m >= confClasses && sel.Method == core.SelectTopM {
				checkFullBudget(t, f, ref)
			}
			for _, k := range ranks(m) {
				for _, r := range rows {
					if sel.Method == core.SelectThreshold && !r.threshold {
						continue
					}
					want := make([]answer, len(ref))
					for i, res := range ref {
						want[i] = mixedAnswer(res.Mixed, k, r.logProbs)
					}
					where := fmt.Sprintf("%s m=%d %v k=%d", r.name, m, sel.Method, k)
					check(t, where, r, f.items, want, sel, k)
				}
			}
		}
	}
}

// checkFullBudget: at m ≥ l every logit is exact, so the reference
// itself must be the full classifier's output (a NaN equal to a NaN:
// the two kernels may propagate different payloads).
func checkFullBudget(t *testing.T, f *model, ref []*core.Result) {
	t.Helper()
	for i, h := range f.items {
		full := f.cls.Logits(h)
		for c, v := range ref[i].Mixed {
			if math.Float32bits(v) != math.Float32bits(full[c]) && !(v != v && full[c] != full[c]) {
				t.Fatalf("item %d: full-budget mixed[%d] = %v, classifier %v", i, c, v, full[c])
			}
		}
	}
}

// mixedAnswer is the reference answer over a mixed vector: its top-k,
// ties toward the lower class, and its argmax (Result.Predict). For a
// decode step the scores are log-probabilities under the mixed softmax
// and the class is the head of the ranking (the greedy token), if any.
func mixedAnswer(mixed []float32, k int, logProbs bool) answer {
	top := tensor.TopK(mixed, k)
	if !logProbs {
		a := answer{Pred: tensor.ArgMax(mixed)}
		for _, c := range top {
			a.Top = append(a.Top, logitEntry(c, mixed[c]))
		}
		return a
	}
	a := answer{Pred: -1}
	lse := activation.LogSumExp(mixed)
	for _, c := range top {
		a.Top = append(a.Top, entry{Class: c, Bits: math.Float64bits(float64(mixed[c]) - lse)})
	}
	if len(top) > 0 {
		a.Pred = top[0]
	}
	return a
}

// check runs one row and compares each item's answer with want: over
// the whole item list, and for a batched row at k = 5 also over every
// batch size 0…9 (the tiling does not depend on k, so one k keeps the
// table fast under -race).
func check(t *testing.T, where string, r row, items [][]float32, want []answer, sel core.Selection, k int) {
	t.Helper()
	sizes := []int{len(items)}
	if r.batched && k == 5 {
		sizes = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, len(items)}
	}
	for _, b := range sizes {
		got := r.run(t, items[:b], sel, k)
		if len(got) != b {
			t.Errorf("%s B=%d: %d answers", where, b, len(got))
			continue
		}
		for i := range got {
			if !got[i].equal(want[i]) {
				t.Errorf("%s B=%d item %d:\n got %+v\nwant %+v", where, b, i, got[i], want[i])
				break
			}
		}
	}
}

func singleNodeRows(t *testing.T, f *model) []row {
	sc := core.GetScratch() // one scratch, reused by every call of the row
	t.Cleanup(sc.Release)
	local, err := server.NewLocal(f.cls, f.scr)
	if err != nil {
		t.Fatal(err)
	}
	rootCls, rootScr := rootModel(t, f)
	rows := []row{{
		name: "core.ClassifyApproxInto", threshold: true,
		run: func(_ *testing.T, batch [][]float32, sel core.Selection, k int) []answer {
			out := make([]answer, len(batch))
			for i, h := range batch {
				res := core.ClassifyApproxInto(f.cls, f.scr, h, sel, sc)
				out[i].Pred = res.Predict()
				for _, c := range sc.RankMixed(res, k) {
					out[i].Top = append(out[i].Top, logitEntry(c, res.Mixed[c]))
				}
			}
			return out
		},
	}}
	for _, procs := range []int{1, 2, 4} {
		rows = append(rows, row{
			name: fmt.Sprintf("core.ClassifyBatchVisitCtx/GOMAXPROCS=%d", procs), threshold: true, batched: true,
			run: func(t *testing.T, batch [][]float32, sel core.Selection, k int) []answer {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				out := make([]answer, len(batch))
				visits := make([]atomic.Int32, len(batch))
				err := core.ClassifyBatchVisitCtx(context.Background(), f.cls, f.scr, batch, sel, nil,
					func(i int, res *core.Result, sc *core.Scratch) {
						visits[i].Add(1)
						out[i].Pred = res.Predict()
						top := slices.Clone(sc.TopK(res.Mixed, k))
						for _, c := range top {
							out[i].Top = append(out[i].Top, logitEntry(c, res.Mixed[c]))
						}
						// The ranking over the m exact logits (Candidates,
						// Exact, Floor) must agree with the mixed vector's.
						if ranked := sc.RankMixed(res, k); !slices.Equal(ranked, top) {
							t.Errorf("GOMAXPROCS=%d B=%d item %d: RankMixed %v, mixed top-k %v", procs, len(batch), i, ranked, top)
						}
					})
				if err != nil {
					t.Fatal(err)
				}
				for i := range visits {
					if n := visits[i].Load(); n != 1 {
						t.Errorf("GOMAXPROCS=%d B=%d: item %d visited %d times", procs, len(batch), i, n)
					}
				}
				return out
			},
		})
	}
	rows = append(rows, row{
		name: "server.Local.ClassifyBatch", batched: true,
		run: func(t *testing.T, batch [][]float32, sel core.Selection, k int) []answer {
			outs, err := local.ClassifyBatch(context.Background(), batch, sel.M, k)
			if err != nil {
				t.Fatal(err)
			}
			return outcomeAnswers(outs)
		},
	}, row{
		name: "enmc.ClassifyBatch", threshold: true, batched: true,
		run: func(_ *testing.T, batch [][]float32, sel core.Selection, k int) []answer {
			out := make([]answer, len(batch))
			for i, res := range enmc.ClassifyBatch(rootCls, rootScr, batch, sel) {
				out[i] = mixedAnswer(res.Logits, k, false)
			}
			return out
		},
	})
	for _, cfg := range []decode.LocalScorerConfig{{}, {CacheSlots: 5}} {
		rows = append(rows, row{
			name: fmt.Sprintf("decode.LocalScorer/CacheSlots=%d", cfg.CacheSlots), logProbs: true,
			run: func(t *testing.T, batch [][]float32, sel core.Selection, k int) []answer {
				// One scorer for the whole list: a session's steps, so the
				// cache carries rows from step to step.
				s := decode.NewLocalScorer(f.cls, f.scr, cfg)
				defer s.Close()
				return stepAnswers(t, s, batch, sel.M, k)
			},
		})
	}
	return rows
}

// rootModel loads the model through the public enmc API from its
// deployment serialization.
func rootModel(t *testing.T, f *model) (*enmc.Classifier, *enmc.Screener) {
	t.Helper()
	var cb, sb bytes.Buffer
	if _, err := f.cls.WriteTo(&cb); err != nil {
		t.Fatal(err)
	}
	if _, err := f.scr.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	cls, err := enmc.LoadClassifier(&cb)
	if err != nil {
		t.Fatal(err)
	}
	scr, err := enmc.LoadScreener(&sb)
	if err != nil {
		t.Fatal(err)
	}
	return cls, scr
}

func outcomeAnswers(outs []server.Outcome) []answer {
	out := make([]answer, len(outs))
	for i, o := range outs {
		out[i].Pred = o.Class
		for _, c := range o.TopK {
			out[i].Top = append(out[i].Top, logitEntry(c.Class, c.Logit))
		}
	}
	return out
}

func stepAnswers(t *testing.T, s decode.Scorer, batch [][]float32, m, k int) []answer {
	out := make([]answer, len(batch))
	for i, h := range batch {
		st, err := s.ScoreStep(context.Background(), h, m, k)
		if err != nil {
			t.Fatal(err)
		}
		out[i].Pred = -1
		if len(st.Classes) > 0 {
			out[i].Pred = st.Classes[0]
		}
		for j, c := range st.Classes {
			out[i].Top = append(out[i].Top, entry{Class: c, Bits: math.Float64bits(st.LogProbs[j])})
		}
	}
	return out
}

// conformSharded holds every sharded path to distributed.Classify over
// the model's shards, on the items without a NaN.
func conformSharded(t *testing.T, f *model) {
	rows := shardedRows(t, f)
	items := f.finite
	for _, m := range budgets() {
		per := (m + confShards - 1) / confShards
		merged := make([][]distributed.Candidate, len(items))
		for i, h := range items {
			var err error
			if merged[i], err = distributed.Classify(f.shards, h, per, 0); err != nil {
				t.Fatal(err)
			}
		}
		var full []*core.Result
		if m >= confClasses {
			for _, h := range items {
				full = append(full, core.ClassifyApprox(f.cls, f.scr, h, core.TopM(m)))
			}
		}
		for _, k := range ranks(m) {
			for _, r := range rows {
				want := make([]answer, len(items))
				for i := range items {
					want[i] = mergedAnswer(merged[i], k, r.logProbs)
					if full != nil && !r.logProbs {
						// Every shard shipped its whole slice exactly: the
						// merge is the single-node full-budget answer.
						if single := mixedAnswer(full[i].Mixed, k, false); !want[i].equal(single) {
							t.Fatalf("m=%d k=%d item %d: distributed.Classify %+v, single node %+v", m, k, i, want[i], single)
						}
					}
				}
				check(t, fmt.Sprintf("%s m=%d k=%d", r.name, m, k), r, items, want, core.TopM(m), k)
			}
		}
	}
}

// mergedAnswer is the reference answer over a merged candidate list:
// its first k entries and its head — or, for a decode step, its first
// max(k, 1) classes with log-probabilities over that pool (the
// cluster.DecodeScorer contract: the router never sees the tail).
func mergedAnswer(merged []distributed.Candidate, k int, logProbs bool) answer {
	a := answer{Pred: merged[0].Class}
	if !logProbs {
		for _, c := range merged[:min(max(k, 0), len(merged))] {
			a.Top = append(a.Top, logitEntry(c.Class, c.Logit))
		}
		return a
	}
	top := merged[:min(max(k, 1), len(merged))]
	maxZ := float64(top[0].Logit)
	for _, c := range top[1:] {
		maxZ = math.Max(maxZ, float64(c.Logit))
	}
	var sum float64
	for _, c := range top {
		sum += math.Exp(float64(c.Logit) - maxZ)
	}
	lse := maxZ + math.Log(sum)
	for _, c := range top {
		a.Top = append(a.Top, entry{Class: c.Class, Bits: math.Float64bits(float64(c.Logit) - lse)})
	}
	return a
}

func shardedRows(t *testing.T, f *model) []row {
	var rows []row
	for _, replicas := range []int{1, 2} {
		r := dialFleet(t, fleet.Start(t, f.shards, replicas, nil))
		rows = append(rows, row{
			name: fmt.Sprintf("cluster.Router.ClassifyBatchPartial/replicas=%d", replicas), batched: true,
			run: func(t *testing.T, batch [][]float32, sel core.Selection, k int) []answer {
				outs, p, err := r.ClassifyBatchPartial(context.Background(), batch, sel.M, k)
				if err != nil {
					t.Fatal(err)
				}
				if p.Partial {
					t.Errorf("healthy fleet answered partial: %+v", p)
				}
				return outcomeAnswers(outs)
			},
		})
		if replicas == 2 {
			rows = append(rows, row{
				name: "cluster.DecodeScorer", logProbs: true,
				run: func(t *testing.T, batch [][]float32, sel core.Selection, k int) []answer {
					s := r.NewDecodeScorer()
					defer s.Close()
					return stepAnswers(t, s, batch, sel.M, k)
				},
			})
		}
	}
	return rows
}

func dialFleet(t *testing.T, fl *fleet.Fleet) *cluster.Router {
	t.Helper()
	r, err := cluster.Dial(context.Background(), cluster.RouterConfig{ShardMap: fl.ShardMap(), HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}
