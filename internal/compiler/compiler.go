// Package compiler implements ENMC's programming support (paper
// Section 5.4, Fig. 9): it tiles a classification task over the
// on-DIMM buffer sizes and emits the per-rank ENMC instruction stream
// the engine executes. The same compiler also targets the baseline
// NMP designs (NDA, Chameleon, TensorDIMM), which run the identical
// algorithm but on homogeneous FP32 datapaths without the dual-module
// pipeline — precisely the contrast the paper's Fig. 13 draws.
package compiler

import (
	"fmt"

	"enmc/internal/enmc"
	"enmc/internal/isa"
	"enmc/internal/quant"
)

// Task describes one batched classification offload.
type Task struct {
	Categories int // l, total classes (across all ranks)
	Hidden     int // d
	Reduced    int // k
	Candidates int // m per inference (across all ranks)
	Batch      int
	// Sigmoid selects the multi-label activation instead of softmax
	// (the recommendation workloads).
	Sigmoid bool
}

// Validate reports task errors.
func (t Task) Validate() error {
	if t.Categories <= 0 || t.Hidden <= 0 || t.Reduced <= 0 {
		return fmt.Errorf("compiler: non-positive dimensions l=%d d=%d k=%d", t.Categories, t.Hidden, t.Reduced)
	}
	if t.Candidates < 0 || t.Candidates > t.Categories {
		return fmt.Errorf("compiler: candidates %d out of range", t.Candidates)
	}
	if t.Batch <= 0 {
		return fmt.Errorf("compiler: non-positive batch")
	}
	return nil
}

// Mode selects which pipeline is compiled.
type Mode int

// Compilation modes.
const (
	// ModeScreened is the paper's pipeline: INT4/FP32 screening plus
	// candidates-only classification.
	ModeScreened Mode = iota
	// ModeFull is conventional full classification (what TensorDIMM
	// natively runs in Fig. 14/15).
	ModeFull
)

// Target describes the hardware the program is compiled for.
type Target struct {
	Name string
	// ScreenOnINT4 routes screening through the INT4 Screener unit
	// (ENMC). Homogeneous baselines execute screening on their FP32
	// datapath instead.
	ScreenOnINT4 bool
	// DualModule enables the Screener→Executor pipeline overlap
	// (SyncS2E annotations instead of full BARRIERs).
	DualModule bool
	// WeightReuseAcrossBatch reuses a streamed weight tile for every
	// batch item (requires enough buffering for per-item partial
	// sums; small-queue designs like TensorDIMM restream instead —
	// the buffer-overflow traffic Fig. 14 attributes energy to).
	WeightReuseAcrossBatch bool
}

// ENMCTarget is the paper's design.
func ENMCTarget() Target {
	return Target{Name: "ENMC", ScreenOnINT4: true, DualModule: true, WeightReuseAcrossBatch: true}
}

// RankShare is the slice of the task owned by one rank (the compiler
// splits classes row-wise across all ranks in the system).
type RankShare struct {
	Rows       int // classifier rows stored and screened on this rank
	Candidates int // candidate rows recomputed on this rank, per inference
}

// Split divides the task evenly over totalRanks.
func (t Task) Split(totalRanks int) RankShare {
	if totalRanks <= 0 {
		panic("compiler: non-positive rank count")
	}
	return RankShare{
		Rows:       ceil(t.Categories, totalRanks),
		Candidates: ceil(t.Candidates, totalRanks),
	}
}

// Layout is the per-rank address map the compiler assumes; the host
// writes it into the status registers during initialization. The
// screening weights and the INT4 feature are stored in the host's
// chunked nibble image (quant.RowBytes(k) bytes per row), so the
// modelled DIMM streams the bytes the host kernel streams.
type Layout struct {
	ScrWBase  uint64 // screening weights (image rows), then per-row scales and biases
	FullWBase uint64 // FP32 classifier rows
	FeatBase  uint64 // input features (INT4 image row, then FP32 copy)
	OutBase   uint64 // spill/output region
}

// LayoutFor exposes the per-rank address map Compile assumes for a
// shard of rows classifier rows with the default hardware's burst
// alignment. The image package uses it to build DRAM images that
// agree with compiled programs.
func LayoutFor(t Task, rows int) Layout {
	share := RankShare{Rows: rows, Candidates: max(t.Candidates, 1)}
	return layoutFor(t, enmc.Default(), share)
}

// layoutFor packs the rank's regions back to back.
func layoutFor(t Task, hw enmc.Config, share RankShare) Layout {
	align := func(x uint64) uint64 {
		b := uint64(hw.DRAM.BurstBytes)
		return (x + b - 1) / b * b
	}
	scrBytes := uint64(share.Rows) * uint64(quant.RowBytes(t.Reduced)+8)
	fullBytes := uint64(share.Rows) * uint64(t.Hidden) * 4
	featBytes := uint64(t.Batch) * uint64(quant.RowBytes(t.Reduced)+t.Hidden*4)
	var l Layout
	l.ScrWBase = 0
	l.FullWBase = align(l.ScrWBase + scrBytes)
	l.FeatBase = align(l.FullWBase + fullBytes)
	l.OutBase = align(l.FeatBase + featBytes)
	return l
}

// Program is a compiled per-rank instruction stream plus the
// bookkeeping the host and the experiment harness need.
type Program struct {
	Target Target
	Mode   Mode
	Task   Task
	Share  RankShare
	Layout Layout
	Ops    []enmc.Op
	// Init is the status-register preamble (INIT instructions).
	Init []enmc.Op
}

type emitter struct {
	ops []enmc.Op
	hw  enmc.Config
	// phase tags every emitted op for the engine's per-phase cycle
	// attribution and span naming; setPhase switches sections.
	phase enmc.Phase
}

func (e *emitter) setPhase(p enmc.Phase) { e.phase = p }

func (e *emitter) emit(in isa.Instruction) { e.ops = append(e.ops, enmc.Op{I: in, Phase: e.phase}) }

// emitB emits with an explicit payload size (partial tiles).
func (e *emitter) emitB(in isa.Instruction, bytes int) {
	e.ops = append(e.ops, enmc.Op{I: in, Bytes: bytes, Phase: e.phase})
}

func (e *emitter) emitSyncB(in isa.Instruction, bytes int) {
	e.ops = append(e.ops, enmc.Op{I: in, SyncS2E: true, Bytes: bytes, Phase: e.phase})
}

// Compile produces the per-rank program for the task on the target.
func Compile(t Task, hw enmc.Config, target Target, share RankShare, mode Mode) (*Program, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	// Screening weights are stored as the INT4 nibble image for every
	// target (the memory format is the algorithm's); what differs is
	// the datapath that consumes them. Homogeneous designs dequantize
	// into their FP32 lanes and become compute-bound — the paper's
	// stated limitation of prior NMPs.
	lay := layoutFor(t, hw, share)
	p := &Program{Target: target, Mode: mode, Task: t, Share: share, Layout: lay}

	p.Init = initProgram(t, lay)

	e := &emitter{hw: hw}
	switch mode {
	case ModeScreened:
		compileScreened(e, t, target, share, lay)
	case ModeFull:
		compileFull(e, t, target, share, lay)
	default:
		return nil, fmt.Errorf("compiler: unknown mode %d", mode)
	}
	p.Ops = e.ops
	return p, nil
}

// initProgram writes the task parameters into the status registers
// (the INIT sequence of Fig. 9(b)).
func initProgram(t Task, lay Layout) []enmc.Op {
	mk := func(r isa.Reg, v uint64) enmc.Op { return enmc.Op{I: isa.Init(r, v), Phase: enmc.PhaseInit} }
	return []enmc.Op{
		mk(isa.RegFeatAddr, lay.FeatBase),
		mk(isa.RegScrWAddr, lay.ScrWBase),
		mk(isa.RegFullWAddr, lay.FullWBase),
		mk(isa.RegOutAddr, lay.OutBase),
		mk(isa.RegVocab, uint64(t.Categories)),
		mk(isa.RegHidden, uint64(t.Hidden)),
		mk(isa.RegReduced, uint64(t.Reduced)),
		mk(isa.RegBatch, uint64(t.Batch)),
	}
}

// compileScreened emits the two-phase pipeline for every batch item.
func compileScreened(e *emitter, t Task, target Target, share RankShare, lay Layout) {
	buf := e.hw.BufBytes
	psumOutputs := buf / 4 // accumulator entries per PSUM tile
	rowBytes := quant.RowBytes(t.Reduced)

	screenUnitWeightOp := isa.Compute(isa.OpMULADDINT4, isa.BufFeatINT4, isa.BufWgtINT4)
	screenLoadBuf := isa.BufWgtINT4
	featLoadBuf := isa.BufFeatINT4
	filterBuf := isa.BufPsumINT4
	// An INT4 tile of B bytes holds B·k/RowBytes(k) weights (2·B when
	// k fills whole chunks), which the Screener consumes in one
	// MULADD_INT4. A homogeneous datapath dequantizes the same tile
	// into FP32 lanes, where one MULADD_FP32 covers only B/4 operands —
	// 8 compute ops per tile. That 8× op-count blowup is exactly why
	// the paper says prior NMPs "hardly meet the throughput requirement
	// in the screening phase".
	if !target.ScreenOnINT4 {
		screenUnitWeightOp = isa.Compute(isa.OpMULADDFP32, isa.BufFeatFP32, isa.BufWgtFP32)
		screenLoadBuf = isa.BufWgtFP32
		featLoadBuf = isa.BufFeatFP32
		filterBuf = isa.BufPsumFP32
	}
	// emitScreenMACs charges the compute for one packed tile of
	// `tile` bytes on the screening datapath.
	emitScreenMACs := func(tile int) {
		if target.ScreenOnINT4 {
			e.emitB(screenUnitWeightOp, tile)
			return
		}
		totalElems := tile * t.Reduced / rowBytes // dequantized weights, pad excluded
		per := buf / 4                            // FP32 operands per compute op
		for done := 0; done < totalElems; done += per {
			e.emitB(screenUnitWeightOp, min(per, totalElems-done)*4)
		}
	}

	items := t.Batch
	reuse := target.WeightReuseAcrossBatch

	emitScreen := func(applyPerItem int) {
		// Screening features for the item(s).
		e.setPhase(enmc.PhaseFeature)
		for off := 0; off < rowBytes; off += buf {
			e.emitB(isa.Ldr(featLoadBuf, lay.FeatBase+uint64(off)), min(buf, rowBytes-off))
		}
		// Stream the rank's screening weight tiles.
		e.setPhase(enmc.PhaseScreen)
		outTiles := ceil(share.Rows, psumOutputs)
		bytesPerOutTile := psumOutputs * rowBytes
		addr := lay.ScrWBase
		for ot := 0; ot < outTiles; ot++ {
			e.setPhase(enmc.PhaseScreen)
			for off := 0; off < bytesPerOutTile; off += buf {
				tile := min(buf, bytesPerOutTile-off)
				e.emitB(isa.Ldr(screenLoadBuf, addr), tile)
				addr += uint64(tile)
				for r := 0; r < applyPerItem; r++ {
					emitScreenMACs(tile)
				}
			}
			e.setPhase(enmc.PhaseFilter)
			for r := 0; r < applyPerItem; r++ {
				e.emit(isa.Filter(filterBuf))
			}
		}
	}

	emitExec := func(item int) {
		// Candidates-only classification: chunk-outer so the feature
		// chunk is reused across candidate rows.
		e.setPhase(enmc.PhaseExact)
		fullRowBytes := t.Hidden * 4
		chunks := ceil(fullRowBytes, buf)
		first := true
		for c := 0; c < chunks; c++ {
			chunkBytes := min(buf, fullRowBytes-c*buf)
			// The FP32 feature copy sits after the INT4 image row.
			featAddr := lay.FeatBase + uint64(rowBytes) + uint64(c*buf)
			in := isa.Ldr(isa.BufFeatFP32, featAddr)
			if first && target.DualModule {
				e.emitSyncB(in, chunkBytes)
				first = false
			} else if first {
				e.emit(isa.Simple(isa.OpBARRIER))
				e.emitB(in, chunkBytes)
				first = false
			} else {
				e.emitB(in, chunkBytes)
			}
			for cand := 0; cand < share.Candidates; cand++ {
				// Candidate rows cluster: screener candidates come
				// from the Zipf-hot head of the class space, which
				// the host lays out contiguously, so the gather has
				// DRAM-row locality. Vary the base per item.
				row := (item*31 + cand) % max(share.Rows, 1)
				wAddr := lay.FullWBase + uint64(row)*uint64(fullRowBytes) + uint64(c*buf)
				e.emitB(isa.Ldr(isa.BufWgtFP32, wAddr), chunkBytes)
				e.emitB(isa.Compute(isa.OpMULADDFP32, isa.BufFeatFP32, isa.BufWgtFP32), chunkBytes)
			}
		}
		e.setPhase(enmc.PhaseActivation)
		if t.Sigmoid {
			e.emit(isa.Simple(isa.OpSIGMOID))
		} else {
			e.emit(isa.Simple(isa.OpSOFTMAX))
		}
		e.setPhase(enmc.PhaseOutput)
		e.emit(isa.Move(isa.BufOutput, isa.BufPsumFP32))
		e.emit(isa.Simple(isa.OpRETURN))
	}

	if reuse {
		// One weight sweep feeds all batch items' screens, then the
		// executor drains each item's candidates.
		emitScreen(items)
		for it := 0; it < items; it++ {
			emitExec(it)
		}
	} else {
		for it := 0; it < items; it++ {
			emitScreen(1)
			emitExec(it)
		}
	}
	e.setPhase(enmc.PhaseOther)
	e.emit(isa.Simple(isa.OpBARRIER))
}

// compileFull emits conventional full classification: every weight
// row is streamed through the FP32 datapath (the TensorDIMM-style
// baseline operation of Fig. 14/15).
func compileFull(e *emitter, t Task, target Target, share RankShare, lay Layout) {
	buf := e.hw.BufBytes
	psumOutputs := buf / 4
	chunks := ceil(t.Hidden*4, buf)
	rowBytes := t.Hidden * 4

	sweep := func(applyPerItem int) {
		outTiles := ceil(share.Rows, psumOutputs)
		for ot := 0; ot < outTiles; ot++ {
			baseRow := ot * psumOutputs
			rows := min(psumOutputs, share.Rows-baseRow)
			e.setPhase(enmc.PhaseExact)
			for c := 0; c < chunks; c++ {
				chunkBytes := min(buf, rowBytes-c*buf)
				e.emitB(isa.Ldr(isa.BufFeatFP32, lay.FeatBase+uint64(c*buf)), chunkBytes)
				for r := 0; r < rows; r++ {
					wAddr := lay.FullWBase + uint64(baseRow+r)*uint64(rowBytes) + uint64(c*buf)
					e.emitB(isa.Ldr(isa.BufWgtFP32, wAddr), chunkBytes)
					for a := 0; a < applyPerItem; a++ {
						e.emitB(isa.Compute(isa.OpMULADDFP32, isa.BufFeatFP32, isa.BufWgtFP32), chunkBytes)
					}
				}
			}
			outBytes := rows * 4
			e.setPhase(enmc.PhaseActivation)
			if t.Sigmoid {
				e.emitB(isa.Simple(isa.OpSIGMOID), outBytes)
			} else {
				e.emitB(isa.Simple(isa.OpSOFTMAX), outBytes)
			}
			e.setPhase(enmc.PhaseOutput)
			e.emitB(isa.Move(isa.BufOutput, isa.BufPsumFP32), outBytes)
			e.emitB(isa.Simple(isa.OpRETURN), outBytes)
		}
	}

	if target.WeightReuseAcrossBatch {
		sweep(t.Batch)
	} else {
		for it := 0; it < t.Batch; it++ {
			sweep(1)
		}
	}
	e.setPhase(enmc.PhaseOther)
	e.emit(isa.Simple(isa.OpBARRIER))
}

func ceil(a, b int) int { return (a + b - 1) / b }
