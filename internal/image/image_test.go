package image_test

import (
	"math"
	"slices"
	"testing"

	"enmc/internal/compiler"
	"enmc/internal/core"
	"enmc/internal/enmc"
	"enmc/internal/funcsim"
	"enmc/internal/image"
	"enmc/internal/isa"
	"enmc/internal/quant"
	"enmc/internal/tensor"
	"enmc/internal/workload"
)

func trainedScreener(t *testing.T) (*core.Screener, *workload.Instance) {
	t.Helper()
	spec := workload.Spec{Name: "img", Categories: 512, Hidden: 128, LatentRank: 24, ZipfS: 1}
	inst := workload.Generate(spec, workload.GenOptions{Seed: 21, Train: 256, Valid: 16, Test: 16})
	cfg := core.Config{Categories: 512, Hidden: 128, Reduced: 32, Precision: quant.INT4, Seed: 4}
	scr, _, err := core.TrainScreener(inst.Classifier, inst.Train, cfg, core.TrainOptions{Epochs: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return scr, inst
}

// shardRows is the rank share of the tests below: four ranks of 128
// rows split the 512 categories, so every rank but the first holds its
// rows at rowStart ≠ 0.
const shardRows = 128

// runRank builds the full image of the rank holding rows
// [rowStart, rowStart+shardRows) for query h and runs the compiled
// screened program over it on the functional DIMM, with the
// candidate threshold th.
func runRank(t *testing.T, scr *core.Screener, inst *workload.Instance, rowStart int, h []float32, th float32) *funcsim.Machine {
	t.Helper()
	hw := enmc.Default()
	img, qh, err := image.BuildFull(inst.Classifier, scr, rowStart, shardRows, h)
	if err != nil {
		t.Fatal(err)
	}
	task := compiler.Task{Categories: 512, Hidden: 128, Reduced: 32, Candidates: 8, Batch: 1}
	prog, err := compiler.Compile(task, hw, compiler.ENMCTarget(),
		compiler.RankShare{Rows: shardRows, Candidates: 8}, compiler.ModeScreened)
	if err != nil {
		t.Fatal(err)
	}
	m := funcsim.New(hw, img)
	pre := []enmc.Op{
		{I: isa.Init(isa.RegThreshold, uint64(math.Float32bits(th)))},
		{I: isa.Init(isa.RegFeatSize, uint64(math.Float32bits(qh.Scale)))},
	}
	if err := m.Run(append(append(pre, prog.Init...), prog.Ops...)); err != nil {
		t.Fatal(err)
	}
	if len(m.Z) != shardRows {
		t.Fatalf("rowStart %d: machine produced %d outputs", rowStart, len(m.Z))
	}
	return m
}

// TestImageMatchesCore is the correctness bridge: the compiled
// program over each rank's DRAM image must reproduce that rank's rows
// of core.Screener.Screen bit for bit, shard by shard.
func TestImageMatchesCore(t *testing.T) {
	scr, inst := trainedScreener(t)
	for _, h := range inst.Test[:4] {
		want := scr.Screen(h)
		for rowStart := 0; rowStart < 512; rowStart += shardRows {
			m := runRank(t, scr, inst, rowStart, h, 1e30)
			for r, got := range m.Z {
				if math.Float32bits(got) != math.Float32bits(want[rowStart+r]) {
					t.Fatalf("row %d: image datapath %v != core %v", rowStart+r, got, want[rowStart+r])
				}
			}
		}
	}
}

// TestThresholdFilterMatchesSelection: each rank's FILTER pass, under
// the global threshold, keeps exactly core's threshold selection among
// its rows (as shard-local indices).
func TestThresholdFilterMatchesSelection(t *testing.T) {
	scr, inst := trainedScreener(t)
	h := inst.Test[0]
	z := scr.Screen(h)
	th := z[tensor.TopK(z, 20)[19]] // threshold at the 20th value
	for rowStart := 0; rowStart < 512; rowStart += shardRows {
		m := runRank(t, scr, inst, rowStart, h, th)
		want := core.SelectCandidates(z[rowStart:rowStart+shardRows], core.Threshold(th))
		if !slices.Equal(m.Candidates, want) {
			t.Fatalf("rowStart %d: candidates %v, core %v", rowStart, m.Candidates, want)
		}
	}
}

// TestExecutorEmulationMatchesClassifier: the FP32 phase over each
// rank's image reads that rank's own classifier rows and reproduces
// their exact logits. The executor sums chunk sub-dots, not
// tensor.Dot's unrolled order, so the reference is chunkedDot.
func TestExecutorEmulationMatchesClassifier(t *testing.T) {
	scr, inst := trainedScreener(t)
	h := inst.Test[2]
	chunk := enmc.Default().BufBytes / 4
	for rowStart := 0; rowStart < 512; rowStart += shardRows {
		m := runRank(t, scr, inst, rowStart, h, 1e30)
		if len(m.ExactLogits) == 0 {
			t.Fatalf("rowStart %d: executor produced no logits", rowStart)
		}
		for row, got := range m.ExactLogits {
			if want := chunkedDot(inst.Classifier.W.Row(rowStart+row), h, chunk); got != want {
				t.Fatalf("row %d: executor %v != classifier %v", rowStart+row, got, want)
			}
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

// TestFullPipelineOverImage runs the screen and filter phases on all
// four ranks and merges them as the host does: the merged candidates
// are the ones core's top-25 pipeline recomputes exactly, and the
// ranks' screened logits are its mixed vector everywhere else, bit for
// bit, so the image pipeline and core reach the same decision.
func TestFullPipelineOverImage(t *testing.T) {
	scr, inst := trainedScreener(t)
	for _, h := range inst.Test[:8] {
		soft := core.ClassifyApprox(inst.Classifier, scr, h, core.TopM(25))
		z := scr.Screen(h)
		th := z[tensor.TopK(z, 25)[24]]
		var cands []int
		mixed := make([]float32, 0, 512)
		for rowStart := 0; rowStart < 512; rowStart += shardRows {
			m := runRank(t, scr, inst, rowStart, h, th)
			for _, c := range m.Candidates {
				cands = append(cands, rowStart+c)
			}
			mixed = append(mixed, m.Z...)
		}
		want := slices.Clone(soft.Candidates)
		slices.Sort(want)
		if !slices.Equal(cands, want) {
			t.Fatalf("image candidates %v, core %v", cands, want)
		}
		for i, c := range soft.Candidates {
			mixed[c] = soft.Exact[i]
		}
		for i := range mixed {
			if math.Float32bits(mixed[i]) != math.Float32bits(soft.Mixed[i]) {
				t.Fatalf("class %d: image pipeline %v != core %v", i, mixed[i], soft.Mixed[i])
			}
		}
	}
}

func TestBuildRankValidation(t *testing.T) {
	scr, inst := trainedScreener(t)
	if _, _, err := image.BuildRank(scr, -1, 10, inst.Test[0]); err == nil {
		t.Fatal("negative shard accepted")
	}
	if _, _, err := image.BuildRank(scr, 500, 100, inst.Test[0]); err == nil {
		t.Fatal("overflowing shard accepted")
	}
	// INT8 screener cannot be laid out in the INT4 image format.
	cfg := core.Config{Categories: 512, Hidden: 128, Reduced: 32, Precision: quant.INT8, Seed: 4}
	scr8, _, err := core.TrainScreener(inst.Classifier, inst.Train[:32], cfg, core.TrainOptions{Epochs: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := image.BuildRank(scr8, 0, 10, inst.Test[0]); err == nil {
		t.Fatal("INT8 screener accepted into INT4 image")
	}
}

func TestImageSizeMatchesLayout(t *testing.T) {
	scr, inst := trainedScreener(t)
	img, _, err := image.BuildRank(scr, 0, 256, inst.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	// Weights (256×32 nibbles) + scales/bias (256×8) must fit below
	// FullWBase; the image extends to the feature region.
	wantMin := int(img.Layout.FeatBase)
	if img.Bytes() < wantMin {
		t.Fatalf("image %d bytes, layout needs ≥ %d", img.Bytes(), wantMin)
	}
}
