package funcsim

import (
	"math"
	"testing"

	"enmc/internal/compiler"
	"enmc/internal/core"
	"enmc/internal/enmc"
	"enmc/internal/image"
	"enmc/internal/isa"
	"enmc/internal/quant"
	"enmc/internal/tensor"
	"enmc/internal/workload"
	"enmc/internal/xrand"
)

func setup(t *testing.T) (*core.Screener, *workload.Instance) {
	t.Helper()
	spec := workload.Spec{Name: "fs", Categories: 320, Hidden: 128, LatentRank: 24, ZipfS: 1}
	inst := workload.Generate(spec, workload.GenOptions{Seed: 31, Train: 256, Valid: 16, Test: 8})
	cfg := core.Config{Categories: 320, Hidden: 128, Reduced: 32, Precision: quant.INT4, Seed: 6}
	scr, _, err := core.TrainScreener(inst.Classifier, inst.Train, cfg, core.TrainOptions{Epochs: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return scr, inst
}

// TestCompiledProgramComputesScreening is the end-to-end functional
// proof: the instruction stream the compiler emits, interpreted over
// the DRAM image the host writes, reproduces core.Screener.Screen bit
// for bit — including the threshold filter's candidate set.
func TestCompiledProgramComputesScreening(t *testing.T) {
	scr, inst := setup(t)
	hw := enmc.Default()

	for _, h := range inst.Test[:4] {
		img, qh, err := image.BuildFull(inst.Classifier, scr, 0, 320, h)
		if err != nil {
			t.Fatal(err)
		}
		want := scr.Screen(h)
		th := want[tensor.TopK(want, 16)[15]] // threshold at the 16th value

		task := compiler.Task{Categories: 320, Hidden: 128, Reduced: 32, Candidates: 8, Batch: 1}
		prog, err := compiler.Compile(task, hw, compiler.ENMCTarget(),
			compiler.RankShare{Rows: 320, Candidates: 8}, compiler.ModeScreened)
		if err != nil {
			t.Fatal(err)
		}

		m := New(hw, img)
		pre := []enmc.Op{
			{I: isa.Init(isa.RegThreshold, uint64(math.Float32bits(th)))},
			{I: isa.Init(isa.RegFeatSize, uint64(math.Float32bits(qh.Scale)))},
		}
		if err := m.Run(append(append(pre, prog.Init...), prog.Ops...)); err != nil {
			t.Fatal(err)
		}

		if len(m.Z) != 320 {
			t.Fatalf("machine produced %d outputs", len(m.Z))
		}
		for i := range want {
			if m.Z[i] != want[i] {
				t.Fatalf("row %d: machine %v != core %v", i, m.Z[i], want[i])
			}
		}
		wantCands := core.SelectCandidates(want, core.Threshold(th))
		if len(m.Candidates) != len(wantCands) {
			t.Fatalf("candidates %d vs %d", len(m.Candidates), len(wantCands))
		}
		for i := range wantCands {
			if m.Candidates[i] != wantCands[i] {
				t.Fatalf("candidate %d: %d vs %d", i, m.Candidates[i], wantCands[i])
			}
		}
	}
}

// TestCompiledExecutorComputesExactLogits: the FP32 path of the
// compiled program must produce the classifier's exact logits
// (serial-summation order) for every row it touches.
func TestCompiledExecutorComputesExactLogits(t *testing.T) {
	scr, inst := setup(t)
	hw := enmc.Default()
	h := inst.Test[0]
	img, qh, err := image.BuildFull(inst.Classifier, scr, 0, 320, h)
	if err != nil {
		t.Fatal(err)
	}
	task := compiler.Task{Categories: 320, Hidden: 128, Reduced: 32, Candidates: 12, Batch: 1}
	prog, err := compiler.Compile(task, hw, compiler.ENMCTarget(),
		compiler.RankShare{Rows: 320, Candidates: 12}, compiler.ModeScreened)
	if err != nil {
		t.Fatal(err)
	}
	m := New(hw, img)
	pre := []enmc.Op{
		{I: isa.Init(isa.RegThreshold, uint64(math.Float32bits(1e30)))},
		{I: isa.Init(isa.RegFeatSize, uint64(math.Float32bits(qh.Scale)))},
	}
	if err := m.Run(append(append(pre, prog.Init...), prog.Ops...)); err != nil {
		t.Fatal(err)
	}
	if len(m.ExactLogits) == 0 {
		t.Fatal("executor produced no logits")
	}
	for row, got := range m.ExactLogits {
		if want := chunkedDot(inst.Classifier.W.Row(row), h, hw.BufBytes/4); got != want {
			t.Fatalf("row %d: executor %v != classifier %v", row, got, want)
		}
	}
}

// chunkedDot is the executor's FP32 summation order: chunk sub-dots
// of the given width, summed — so a comparison can be bit for bit.
func chunkedDot(w, h []float32, chunk int) float32 {
	var sum float32
	for c := 0; c < len(w); c += chunk {
		var acc float32
		for j := c; j < min(c+chunk, len(w)); j++ {
			acc += w[j] * h[j]
		}
		sum += acc
	}
	return sum
}

func TestMachineRejectsBadPrograms(t *testing.T) {
	scr, inst := setup(t)
	img, _, err := image.BuildFull(inst.Classifier, scr, 0, 320, inst.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	m := New(enmc.Default(), img)
	// FP32 MULADD without a weight load must fail.
	if err := m.Run([]enmc.Op{{I: isa.Compute(isa.OpMULADDFP32, isa.BufFeatFP32, isa.BufWgtFP32)}}); err == nil {
		t.Fatal("MULADD without weight load accepted")
	}
	// Weight load far beyond the image must fail.
	m2 := New(enmc.Default(), img)
	if err := m2.Run([]enmc.Op{{I: isa.Ldr(isa.BufWgtINT4, 1<<40)}}); err == nil {
		t.Fatal("out-of-image load accepted")
	}
}

func TestMachineRejectsBatchedPrograms(t *testing.T) {
	scr, inst := setup(t)
	img, _, err := image.BuildFull(inst.Classifier, scr, 0, 320, inst.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	m := New(enmc.Default(), img)
	if err := m.Run([]enmc.Op{{I: isa.Init(isa.RegBatch, 4)}}); err == nil {
		t.Fatal("batched program accepted by the functional machine")
	}
}

// projectedModel is a random classifier of l classes over d hidden
// units and its projected INT4 screener of width k: no training, so
// shapes far from setup's stay cheap.
func projectedModel(t *testing.T, l, d, k int) (*core.Classifier, *core.Screener) {
	t.Helper()
	r := xrand.New(uint64(l*d + k))
	w := tensor.NewMatrix(l, d)
	for i := range w.Data {
		w.Data[i] = r.NormFloat32()
	}
	b := make([]float32, l)
	for i := range b {
		b[i] = 0.1 * r.NormFloat32()
	}
	cls, err := core.NewClassifier(w, b)
	if err != nil {
		t.Fatal(err)
	}
	scr, err := core.ProjectedScreener(cls, core.Config{Categories: l, Hidden: d, Reduced: k, Precision: quant.INT4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return cls, scr
}

// TestScreenBytesMatchHost: the modelled DIMM streams the bytes the
// host kernel streams. For a rank share of R rows, the compiled
// program's screen-phase weight loads, BuildRank's weight region and
// R·quant.RowBytes(k) are one number, and StreamBytes adds only the
// 4-byte per-row scales. The compiler streams whole 64-row PSUM tiles
// (TestWeightTrafficConservation), so a share that is not a multiple
// of 64 rows over-reads its last tile; the R = 100 case pins that
// over-read in bytes instead of hiding it.
func TestScreenBytesMatchHost(t *testing.T) {
	const d = 400
	hw := enmc.Default()
	psum := hw.BufBytes / 4
	for _, k := range []int{32, 65, 128, 375} {
		for _, rows := range []int{320, 2048, 100} {
			_, scr := projectedModel(t, rows, d, k)
			img, _, err := image.BuildRank(scr, 0, rows, make([]float32, d))
			if err != nil {
				t.Fatal(err)
			}
			task := compiler.Task{Categories: rows, Hidden: d, Reduced: k, Candidates: 1, Batch: 1}
			prog, err := compiler.Compile(task, hw, compiler.ENMCTarget(), compiler.RankShare{Rows: rows, Candidates: 1}, compiler.ModeScreened)
			if err != nil {
				t.Fatal(err)
			}
			loaded := 0
			for _, op := range prog.Ops {
				if op.Phase == enmc.PhaseScreen && op.I.Op == isa.OpLDR && op.I.Buf0 == isa.BufWgtINT4 {
					loaded += op.Bytes
				}
			}
			host := rows * quant.RowBytes(k)
			region := img.MetaBase() - int(img.Layout.ScrWBase)
			streamed := (rows + psum - 1) / psum * psum * quant.RowBytes(k)
			if region != host || loaded != streamed || rows%psum == 0 && loaded != host {
				t.Fatalf("k=%d R=%d: compiled loads %d, image region %d, host image %d (whole PSUM tiles %d)",
					k, rows, loaded, region, host, streamed)
			}
			if got := scr.QW.StreamBytes(); got != int64(host+4*rows) {
				t.Fatalf("k=%d R=%d: StreamBytes %d, want %d", k, rows, got, host+4*rows)
			}
		}
	}
}

// TestMachineScreensEveryChunkShape runs compiled programs over images
// whose rows end off the 64-column chunk — one chunk plus a one-column
// tail, whole chunks, and the LM shape's 375 (six chunks, 192-byte rows
// that straddle the 256-byte tiles) — and must reproduce
// core.Screener.Screen bit for bit.
func TestMachineScreensEveryChunkShape(t *testing.T) {
	const l, d = 320, 400
	hw := enmc.Default()
	for _, k := range []int{65, 128, 375} {
		cls, scr := projectedModel(t, l, d, k)
		h := make([]float32, d)
		for i := range h {
			h[i] = float32(i%7) - 3
		}
		img, qh, err := image.BuildFull(cls, scr, 0, l, h)
		if err != nil {
			t.Fatal(err)
		}
		task := compiler.Task{Categories: l, Hidden: d, Reduced: k, Candidates: 8, Batch: 1}
		prog, err := compiler.Compile(task, hw, compiler.ENMCTarget(), compiler.RankShare{Rows: l, Candidates: 8}, compiler.ModeScreened)
		if err != nil {
			t.Fatal(err)
		}
		m := New(hw, img)
		pre := []enmc.Op{
			{I: isa.Init(isa.RegThreshold, uint64(math.Float32bits(1e30)))},
			{I: isa.Init(isa.RegFeatSize, uint64(math.Float32bits(qh.Scale)))},
		}
		if err := m.Run(append(append(pre, prog.Init...), prog.Ops...)); err != nil {
			t.Fatal(err)
		}
		want := scr.Screen(h)
		if len(m.Z) != l {
			t.Fatalf("k=%d: machine produced %d outputs", k, len(m.Z))
		}
		for i := range want {
			if m.Z[i] != want[i] {
				t.Fatalf("k=%d row %d: machine %v != core %v", k, i, m.Z[i], want[i])
			}
		}
	}
}
