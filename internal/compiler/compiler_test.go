package compiler

import (
	"testing"
	"testing/quick"

	"enmc/internal/enmc"
	"enmc/internal/isa"
	"enmc/internal/quant"
	"enmc/internal/xrand"
)

func testTask() Task {
	return Task{Categories: 8192, Hidden: 512, Reduced: 128, Candidates: 128, Batch: 1}
}

func hw() enmc.Config {
	c := enmc.Default()
	c.DRAM.Rows = 4096
	return c
}

func TestTaskValidate(t *testing.T) {
	if err := testTask().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testTask()
	bad.Batch = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("batch 0 accepted")
	}
	bad = testTask()
	bad.Candidates = bad.Categories + 1
	if err := bad.Validate(); err == nil {
		t.Fatal("too many candidates accepted")
	}
}

func TestSplit(t *testing.T) {
	share := testTask().Split(64)
	if share.Rows != 128 || share.Candidates != 2 {
		t.Fatalf("share = %+v", share)
	}
}

func TestLayoutNonOverlapping(t *testing.T) {
	task := testTask()
	share := task.Split(64)
	p, err := Compile(task, hw(), ENMCTarget(), share, ModeScreened)
	if err != nil {
		t.Fatal(err)
	}
	l := p.Layout
	if !(l.ScrWBase < l.FullWBase && l.FullWBase < l.FeatBase && l.FeatBase < l.OutBase) {
		t.Fatalf("layout regions overlap: %+v", l)
	}
	// Full weights region must hold share.Rows × d × 4 bytes.
	if l.FeatBase-l.FullWBase < uint64(share.Rows*task.Hidden*4) {
		t.Fatal("full-weight region too small")
	}
}

func TestAllInstructionsValid(t *testing.T) {
	task := testTask()
	task.Batch = 2
	for _, mode := range []Mode{ModeScreened, ModeFull} {
		p, err := Compile(task, hw(), ENMCTarget(), task.Split(64), mode)
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range append(p.Init, p.Ops...) {
			if err := op.I.Validate(); err != nil {
				t.Fatalf("mode %d op %d: %v", mode, i, err)
			}
		}
	}
}

func TestInitProgramSetsRegisters(t *testing.T) {
	task := testTask()
	p, err := Compile(task, hw(), ENMCTarget(), task.Split(64), ModeScreened)
	if err != nil {
		t.Fatal(err)
	}
	e, err := enmc.New(hw())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(p.Init); err != nil {
		t.Fatal(err)
	}
	if e.Reg(isa.RegVocab) != uint64(task.Categories) {
		t.Fatal("vocab register not initialized")
	}
	if e.Reg(isa.RegReduced) != uint64(task.Reduced) {
		t.Fatal("reduced register not initialized")
	}
}

func TestScreenedUsesINT4OnENMC(t *testing.T) {
	task := testTask()
	p, _ := Compile(task, hw(), ENMCTarget(), task.Split(64), ModeScreened)
	int4, fp32, syncs := 0, 0, 0
	for _, op := range p.Ops {
		switch op.I.Op {
		case isa.OpMULADDINT4:
			int4++
		case isa.OpMULADDFP32:
			fp32++
		}
		if op.SyncS2E {
			syncs++
		}
	}
	if int4 == 0 || fp32 == 0 {
		t.Fatalf("expected both phases: int4=%d fp32=%d", int4, fp32)
	}
	if syncs != task.Batch {
		t.Fatalf("syncs = %d, want one per batch item", syncs)
	}
}

func TestHomogeneousTargetScreensOnFP32(t *testing.T) {
	task := testTask()
	tgt := Target{Name: "TensorDIMM", WeightReuseAcrossBatch: true}
	p, err := Compile(task, hw(), tgt, task.Split(64), ModeScreened)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range p.Ops {
		if op.I.Op == isa.OpMULADDINT4 {
			t.Fatal("homogeneous target must not use INT4 MACs")
		}
		if op.SyncS2E {
			t.Fatal("non-dual-module target emitted SyncS2E")
		}
	}
}

func TestBatchRestreamingMultipliesLoads(t *testing.T) {
	task := testTask()
	task.Batch = 4
	countLoads := func(reuse bool) int {
		tgt := ENMCTarget()
		tgt.WeightReuseAcrossBatch = reuse
		p, err := Compile(task, hw(), tgt, task.Split(64), ModeScreened)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, op := range p.Ops {
			if op.I.Op == isa.OpLDR && (op.I.Buf0 == isa.BufWgtINT4 || op.I.Buf0 == isa.BufWgtFP32) {
				n++
			}
		}
		return n
	}
	withReuse := countLoads(true)
	without := countLoads(false)
	// Screening weights restreamed per item ≈ more loads; executor
	// candidate loads are per-item in both cases.
	if without < withReuse*2 {
		t.Fatalf("restreaming loads %d not ≫ reused %d", without, withReuse)
	}
}

func TestFullModeStreamsEverything(t *testing.T) {
	task := testTask()
	share := task.Split(64)
	p, err := Compile(task, hw(), ENMCTarget(), share, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	var bytes int64
	for _, op := range p.Ops {
		if op.I.Op == isa.OpLDR && op.I.Buf0 == isa.BufWgtFP32 {
			bytes += 256
		}
	}
	want := int64(share.Rows) * int64(task.Hidden) * 4
	if bytes < want {
		t.Fatalf("full mode streamed %d weight bytes, need ≥ %d", bytes, want)
	}
}

// TestScreenedBeatsFullOnEngine runs both compiled programs through
// the engine: the screened pipeline must be several times faster —
// the paper's whole point.
func TestScreenedBeatsFullOnEngine(t *testing.T) {
	task := testTask()
	share := task.Split(64)

	run := func(mode Mode) int64 {
		p, err := Compile(task, hw(), ENMCTarget(), share, mode)
		if err != nil {
			t.Fatal(err)
		}
		e, err := enmc.New(hw())
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(p.Ops)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}

	screened := run(ModeScreened)
	full := run(ModeFull)
	if full < screened*4 {
		t.Fatalf("screened %d vs full %d: speedup below 4×", screened, full)
	}
}

func TestSigmoidTask(t *testing.T) {
	task := testTask()
	task.Sigmoid = true
	p, err := Compile(task, hw(), ENMCTarget(), task.Split(64), ModeScreened)
	if err != nil {
		t.Fatal(err)
	}
	hasSigmoid, hasSoftmax := false, false
	for _, op := range p.Ops {
		if op.I.Op == isa.OpSIGMOID {
			hasSigmoid = true
		}
		if op.I.Op == isa.OpSOFTMAX {
			hasSoftmax = true
		}
	}
	if !hasSigmoid || hasSoftmax {
		t.Fatal("sigmoid task must use SIGMOID, not SOFTMAX")
	}
}

// TestWeightTrafficConservation is the property that anchors every
// performance result: for random tasks, the bytes of screening
// weights a compiled program loads must equal the shard's packed
// weight footprint exactly — no tile may be dropped or double-loaded.
func TestWeightTrafficConservation(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		task := Task{
			Categories: 512 + r.Intn(8192),
			Hidden:     64 * (1 + r.Intn(8)),
			Batch:      1 + r.Intn(3),
		}
		task.Reduced = task.Hidden / (2 << r.Intn(3)) // d/2, d/4, d/8
		if task.Reduced < 1 {
			task.Reduced = 1
		}
		task.Candidates = 1 + r.Intn(task.Categories/4)
		ranks := 1 << r.Intn(7)
		share := task.Split(ranks)

		p, err := Compile(task, hw(), ENMCTarget(), share, ModeScreened)
		if err != nil {
			t.Log(err)
			return false
		}
		var screenBytes, candBytes int64
		for _, op := range p.Ops {
			if op.I.Op != isa.OpLDR {
				continue
			}
			n := int64(op.Bytes)
			if n == 0 {
				n = int64(hw().BufBytes)
			}
			switch op.I.Buf0 {
			case isa.BufWgtINT4:
				screenBytes += n
			case isa.BufWgtFP32:
				candBytes += n
			}
		}
		// Screening weights: ceil over out-tiles of 64 rows, each
		// 64 image rows of quant.RowBytes(k) bytes, loaded exactly
		// once (ENMC reuses across the batch).
		psum := hw().BufBytes / 4
		outTiles := (share.Rows + psum - 1) / psum
		wantScreen := int64(outTiles) * int64(psum) * int64(quant.RowBytes(task.Reduced))
		if screenBytes != wantScreen {
			t.Logf("screen bytes %d, want %d (rows=%d k=%d)", screenBytes, wantScreen, share.Rows, task.Reduced)
			return false
		}
		// Candidate weights: candidates × row bytes per batch item.
		wantCand := int64(task.Batch) * int64(share.Candidates) * int64(task.Hidden) * 4
		if candBytes != wantCand {
			t.Logf("cand bytes %d, want %d", candBytes, wantCand)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFullModeTrafficConservation: full classification must stream
// every FP32 weight byte of the shard exactly once (with reuse).
func TestFullModeTrafficConservation(t *testing.T) {
	task := Task{Categories: 4096, Hidden: 384, Reduced: 96, Candidates: 64, Batch: 3}
	share := task.Split(16)
	p, err := Compile(task, hw(), ENMCTarget(), share, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	var bytes int64
	for _, op := range p.Ops {
		if op.I.Op == isa.OpLDR && op.I.Buf0 == isa.BufWgtFP32 {
			n := int64(op.Bytes)
			if n == 0 {
				n = int64(hw().BufBytes)
			}
			bytes += n
		}
	}
	want := int64(share.Rows) * int64(task.Hidden) * 4
	if bytes != want {
		t.Fatalf("full-mode weight bytes %d, want %d", bytes, want)
	}
}
