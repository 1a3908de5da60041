package experiments

import (
	"context"
	"fmt"

	"enmc/internal/activation"
	"enmc/internal/compiler"
	"enmc/internal/core"
	"enmc/internal/cpuhost"
	"enmc/internal/decode"
	"enmc/internal/enmc"
	"enmc/internal/host"
	"enmc/internal/metrics"
	"enmc/internal/nmp"
	"enmc/internal/quant"
	"enmc/internal/system"
	"enmc/internal/tensor"
	"enmc/internal/workload"
)

// The experiments in this file go beyond the paper's figures: they
// evaluate the extensions the paper sketches (distributed scale-out,
// host-interface behaviour) and quantify the design-choice ablations
// DESIGN.md calls out, so the claims in the architecture sections are
// backed by numbers rather than prose.

// ExtScaleOut evaluates the related-work extension: sharding the
// classifier across nodes, each with its own ENMC memory system and
// its rows of the screener. Reports speedup and parallel efficiency
// over 1–16 nodes for S10M.
func ExtScaleOut(o PerfOptions) (*Table, error) {
	o.defaults()
	t := &Table{
		Title:  "Extension — distributed scale-out (S10M, per-node 8×8 ENMC)",
		Header: []string{"nodes", "per-node ms", "network us", "total ms", "speedup", "efficiency"},
	}
	spec, err := workload.ByName("S10M")
	if err != nil {
		return nil, err
	}
	task := taskFor(spec, 1, o.EnergyCandidateFraction)
	sys := system.Default(nmp.ENMC())
	if o.SampleRows > 0 {
		sys.SampleRows = o.SampleRows
	}

	var base float64
	for _, n := range []int{1, 2, 4, 8, 16} {
		node, scatter, gather, err := scaleOutRun(sys, task, n)
		if err != nil {
			return nil, err
		}
		total := node + scatter + gather
		if n == 1 {
			base = total
		}
		speedup := base / total
		t.AddRow(fmt.Sprint(n),
			f3(node*1e3),
			f1((scatter+gather)*1e6),
			f3(total*1e3),
			fmtX(speedup),
			f2(speedup/float64(n)))
	}
	t.Notes = append(t.Notes,
		"each node keeps an approximate screener over its class shard; the aggregator merges exact candidate logits",
		"efficiency decays as the gather fan-in grows relative to per-node classification")
	return t, nil
}

// The scale-out network: 100 GbE per node, 5 µs one-way message
// latency.
const (
	scaleOutLinkBytesPerSec = 12.5e9
	scaleOutLinkLatencySec  = 5e-6
)

// scaleOutRun models one batched screened offload of task with its
// classes sharded row-wise over nodes, each node an ENMC memory system
// sys. It returns, in seconds, the slowest node's local
// classification, the scatter (the batch's hidden vectors sent to
// every node) and the gather (every node's (index, logit) candidate
// pairs, serialized by the aggregator's fan-in).
func scaleOutRun(sys system.Config, task compiler.Task, nodes int) (node, scatter, gather float64, err error) {
	shard := task
	shard.Categories = (task.Categories + nodes - 1) / nodes
	shard.Candidates = min((task.Candidates+nodes-1)/nodes, shard.Categories)
	res, err := sys.Run(shard, compiler.ModeScreened)
	if err != nil {
		return 0, 0, 0, err
	}
	scatterBytes := float64(task.Batch) * float64(task.Hidden) * 4
	gatherBytes := float64(nodes) * float64(task.Batch) * float64(shard.Candidates) * 8
	scatter = scaleOutLinkLatencySec + scatterBytes/scaleOutLinkBytesPerSec
	gather = scaleOutLinkLatencySec + gatherBytes/scaleOutLinkBytesPerSec
	return res.Seconds, scatter, gather, nil
}

// ExtHostInterface characterizes the host↔DIMM link of Fig. 10: what
// fraction of an offload the channel interface (descriptors, polling,
// RETURN traffic) occupies, per workload. The design goal is that the
// engines — not the interface — bound the system.
func ExtHostInterface(o PerfOptions) (*Table, error) {
	o.defaults()
	t := &Table{
		Title:  "Extension — host interface occupancy (Fig. 10 flow)",
		Header: []string{"workload", "engine cycles", "descr cycles", "poll cycles", "return cycles", "host-bus fraction"},
	}
	hw := nmp.ENMC().Hw
	for _, spec := range workload.Table2() {
		task := taskFor(spec, 4, o.CandidateFraction)
		share := task.Split(64)
		if o.SampleRows > 0 && share.Rows > o.SampleRows {
			share.Rows = o.SampleRows
		}
		prog, err := compiler.Compile(task, hw, compiler.ENMCTarget(), share, compiler.ModeScreened)
		if err != nil {
			return nil, err
		}
		res, err := host.Run(host.Default(), hw, prog)
		if err != nil {
			return nil, err
		}
		t.AddRow(spec.Name,
			fmt.Sprint(res.EngineCycles),
			fmt.Sprint(res.DescriptorCycles),
			fmt.Sprint(res.PollCycles),
			fmt.Sprint(res.ReturnCycles),
			f3(res.HostBusFraction))
	}
	t.Notes = append(t.Notes,
		"fractions well below 1 confirm the PRECHARGE-framed instruction interface never bottlenecks the offload")
	return t, nil
}

// Ablations quantifies the design choices DESIGN.md marks ◆: learned
// vs projected screener, top-m vs threshold selection, per-row vs
// per-tensor scales, dual-module pipelining, and batch weight reuse.
func Ablations(o QualityOptions) (*Table, error) {
	o.defaults()
	t := &Table{
		Title:  "Ablations — design choices",
		Header: []string{"ablation", "variant", "metric", "value"},
	}

	spec := workload.Spec{Name: "ablation", Categories: 768, Hidden: 128, LatentRank: 32, ZipfS: 1.05}
	inst := workload.Generate(spec, workload.GenOptions{
		Seed: o.Seed, Train: o.TrainSamples, Valid: 32, Test: o.TestSamples,
	})
	cfg := core.Config{Categories: 768, Hidden: 128, Reduced: 32, Precision: quant.INT4, Seed: o.Seed}
	const m = 38 // 5% budget

	agreement := func(scr *core.Screener, sel core.Selection) float64 {
		q, _ := metrics.ScreenQuality(context.Background(), inst.Classifier, inst.Test, 1, func(h []float32) *core.Result {
			return core.ClassifyApprox(inst.Classifier, scr, h, sel)
		})
		return q.Top1
	}

	learned, _, err := core.TrainScreener(inst.Classifier, inst.Train, cfg, core.TrainOptions{Epochs: o.Epochs, Seed: o.Seed + 1})
	if err != nil {
		return nil, err
	}
	projected, err := core.ProjectedScreener(inst.Classifier, cfg)
	if err != nil {
		return nil, err
	}
	t.AddRow("screener init", "learned (Alg. 1)", "top-1 agreement", f3(agreement(learned, core.TopM(m))))
	t.AddRow("screener init", "projected W·Pᵀ", "top-1 agreement", f3(agreement(projected, core.TopM(m))))

	th := core.CalibrateThreshold(learned, inst.Valid, m)
	t.AddRow("selection", "top-m", "top-1 agreement", f3(agreement(learned, core.TopM(m))))
	t.AddRow("selection", "threshold (hw filter)", "top-1 agreement", f3(agreement(learned, core.Threshold(th))))

	ptCfg := cfg
	ptCfg.PerTensor = true
	perTensor, _, err := core.TrainScreener(inst.Classifier, inst.Train, ptCfg, core.TrainOptions{Epochs: o.Epochs, Seed: o.Seed + 1})
	if err != nil {
		return nil, err
	}
	screenMSE := func(scr *core.Screener) float64 {
		var total float64
		for _, h := range inst.Test {
			total += tensor.MSE(scr.Screen(h), inst.Classifier.Logits(h))
		}
		return total / float64(len(inst.Test))
	}
	t.AddRow("quant scales", "per-row", "screen MSE", f2(screenMSE(learned)))
	t.AddRow("quant scales", "per-tensor", "screen MSE", f2(screenMSE(perTensor)))

	// Quantization-aware fine-tuning at the aggressive INT2 point.
	// The STE phase needs a converged float model to fine-tune, so
	// this comparison always gets at least 12 epochs.
	int2Cfg := cfg
	int2Cfg.Precision = quant.INT2
	int2Epochs := o.Epochs
	if int2Epochs < 12 {
		int2Epochs = 12
	}
	int2Post, _, err := core.TrainScreener(inst.Classifier, inst.Train, int2Cfg, core.TrainOptions{Epochs: int2Epochs, Seed: o.Seed + 1})
	if err != nil {
		return nil, err
	}
	int2QAT, _, err := core.TrainScreener(inst.Classifier, inst.Train, int2Cfg, core.TrainOptions{Epochs: int2Epochs, Seed: o.Seed + 1, QuantAware: true})
	if err != nil {
		return nil, err
	}
	t.AddRow("INT2 training", "post-training quant", "screen MSE", f2(screenMSE(int2Post)))
	t.AddRow("INT2 training", "quant-aware (STE)", "screen MSE", f2(screenMSE(int2QAT)))

	// Architecture ablations: dual-module pipeline + batch reuse.
	task := compiler.Task{Categories: 131072, Hidden: 512, Reduced: 128, Candidates: 8192, Batch: 4}
	cycles := func(dual bool) (int64, error) {
		tgt := compiler.ENMCTarget()
		tgt.DualModule = dual
		tgt.WeightReuseAcrossBatch = false
		prog, err := compiler.Compile(task, enmc.Default(), tgt, task.Split(64), compiler.ModeScreened)
		if err != nil {
			return 0, err
		}
		eng, err := enmc.New(enmc.Default())
		if err != nil {
			return 0, err
		}
		res, err := eng.Run(prog.Ops)
		if err != nil {
			return 0, err
		}
		return res.Cycles, nil
	}
	dual, err := cycles(true)
	if err != nil {
		return nil, err
	}
	serial, err := cycles(false)
	if err != nil {
		return nil, err
	}
	t.AddRow("pipeline", "dual-module (SyncS2E)", "rank cycles", fmt.Sprint(dual))
	t.AddRow("pipeline", "serialized (BARRIER)", "rank cycles", fmt.Sprint(serial))

	for _, reuse := range []bool{true, false} {
		d := nmp.TensorDIMM()
		d.Target.WeightReuseAcrossBatch = reuse
		res, err := system.Default(d).Run(task, compiler.ModeFull)
		if err != nil {
			return nil, err
		}
		name := "reuse across batch"
		if !reuse {
			name = "restream per item"
		}
		t.AddRow("batch weights", name, "offload µs", f1(res.Seconds*1e6))
	}

	t.Notes = append(t.Notes,
		"dual-module gains are small when both phases are memory-bound on the same rank — the INT4 datapath, not the overlap, carries ENMC's speedup in this model")
	return t, nil
}

// ExtBeam evaluates the paper's beam-search use case (Section 3:
// "we only use the top-K values … where K is the beam search size"):
// beam decoding with a screened scorer versus the exact scorer, at
// several beam widths and candidate budgets. Both arms run the served
// search, decode.Session: the screened arm on decode.LocalScorer (the
// /v1/decode path), the exact arm on exactScorer.
func ExtBeam(o QualityOptions) (*Table, error) {
	o.defaults()
	t := &Table{
		Title:  "Extension — beam search with approximate screening (GNMT config)",
		Header: []string{"beam", "budget", "token agreement", "logprob ratio"},
	}
	p, err := prepare(workload.Table2()[2], o) // GNMT
	if err != nil {
		return nil, err
	}
	// beam decodes from the first o.Sentences test vectors and returns
	// each best hypothesis and the sum of their log-probabilities.
	beam := func(width, m int, newScorer func() decode.Scorer) (seqs [][]int, lp float64, err error) {
		svc := decode.NewService(decode.Config{TopM: m}, p.dec, newScorer)
		defer svc.Shutdown()
		for _, h0 := range p.inst.Test[:min(o.Sentences, len(p.inst.Test))] {
			sess, err := svc.Open(decode.Beam, width, h0)
			if err == nil {
				_, err = sess.Run(context.Background(), o.SentenceLen, func(decode.Token) error { return nil })
			}
			if err != nil {
				return nil, 0, err
			}
			seqs, lp = append(seqs, sess.Tokens()), lp+sess.BestLogProb()
			svc.Close(sess.ID)
		}
		return seqs, lp, nil
	}
	exact := func() decode.Scorer { return &exactScorer{cls: p.inst.Classifier} }
	screened := func() decode.Scorer {
		return decode.NewLocalScorer(p.inst.Classifier, p.scr, decode.LocalScorerConfig{})
	}

	for _, width := range []int{1, 2, 4} {
		refs, lpExact, err := beam(width, 0, exact)
		if err != nil {
			return nil, err
		}
		for _, frac := range []float64{0.02, 0.05} {
			hyps, lpAS, err := beam(width, max(int(frac*float64(p.spec.Categories)), width), screened)
			if err != nil {
				return nil, err
			}
			match, total := 0, 0
			for i, hyp := range hyps {
				for t, tok := range hyp {
					if t < len(refs[i]) && tok == refs[i][t] {
						match++
					}
					total++
				}
			}
			ratio := 1.0
			if lpExact != 0 {
				ratio = lpAS / lpExact
			}
			t.AddRow(fmt.Sprint(width), fmt.Sprintf("%.0f%%", frac*100),
				f3(float64(match)/float64(total)), f3(ratio))
		}
	}
	t.Notes = append(t.Notes,
		"agreement near 1 means screening preserves the whole beam, not just the argmax — the top-K accuracy requirement of Section 3")
	return t, nil
}

// exactScorer is ExtBeam's reference decode.Scorer: the top-k of the
// full classifier's logits under their softmax, with no candidate
// budget.
type exactScorer struct {
	cls *core.Classifier
	buf tensor.TopKBuf
}

func (s *exactScorer) ScoreStep(_ context.Context, h []float32, m, k int) (decode.StepScore, error) {
	z := s.cls.Logits(h)
	lse := activation.LogSumExp(z)
	sc := decode.StepScore{Classes: tensor.TopKInto(z, k, &s.buf), M: m}
	for _, c := range sc.Classes {
		sc.LogProbs = append(sc.LogProbs, float64(z[c])-lse)
	}
	return sc, nil
}

func (s *exactScorer) Close() {}

// ExtGPU reproduces the Fig. 3 motivation quantitatively: full
// classification time on a V100-class GPU versus the CPU and the ENMC
// system as categories scale past device-memory capacity. The GPU
// wins while the classifier is resident, collapses across the
// capacity cliff, and the pooled-memory NMP design keeps scaling.
func ExtGPU(o PerfOptions) (*Table, error) {
	o.defaults()
	t := &Table{
		Title:  "Extension — GPU capacity cliff (full classification, d=512, batch 1)",
		Header: []string{"categories", "weights GB", "GPU ms", "CPU ms", "ENMC ms (screened)"},
	}
	cpu := cpuhost.Xeon8280()
	gpu := cpuhost.V100()
	for _, l := range []int{1_000_000, 4_000_000, 8_000_000, 16_000_000, 50_000_000, 100_000_000} {
		spec := workload.Spec{Categories: l, Hidden: 512, Application: "Recommendation"}
		task := taskFor(spec, 1, o.EnergyCandidateFraction)
		en, err := sysFor(nmp.ENMC(), o.SampleRows).Run(task, compiler.ModeScreened)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(l),
			f1(spec.WeightBytes()/(1<<30)),
			f2(gpu.TimeFull(l, 512, 1)*1e3),
			f2(cpu.TimeFull(l, 512, 1)*1e3),
			f2(en.Seconds*1e3))
	}
	t.Notes = append(t.Notes,
		"the GPU column jumps ~2 orders of magnitude at its 16 GB capacity (weights overflow to PCIe), while the NMP memory pool keeps scaling — the paper's Fig. 3 argument")
	return t, nil
}
