// Package funcsim is a functional (value-level) machine for the ENMC
// DIMM: it interprets compiled instruction streams against a
// byte-addressable rank memory, actually moving data through the
// modeled buffers — LDR moves tiles of the nibble image from memory,
// MUL_ADD_INT4 decodes them through quant.UnpackRow and runs the MAC
// array into the partial-sum accumulators, FILTER dequantizes,
// thresholds and emits candidate indices, and the FP32 executor path
// computes exact candidate logits.
//
// Together with the timing engine (internal/enmc, which charges
// cycles but does not interpret values) this completes the simulator:
// TestCompiledProgramComputesScreening proves that the instruction
// stream the compiler emits, run over the DRAM image the host writes,
// produces exactly the numbers core.Screener computes in software.
//
// One contract is made explicit here rather than in instruction
// operands: the PSUM bookkeeping. The hardware's controller sequences
// rows into the accumulators via its status registers (TileRows,
// counters); the machine mirrors that microstate, assuming the
// compiler's canonical streaming order (row-major tiles within
// 64-row output tiles). The dequantization scales and biases live in
// the metadata block after the weights, which the FILTER
// microcode reads — exactly how per-row scale factors reach
// comparator hardware.
package funcsim

import (
	"encoding/binary"
	"fmt"
	"math"

	"enmc/internal/enmc"
	"enmc/internal/image"
	"enmc/internal/isa"
	"enmc/internal/quant"
)

// Machine executes ENMC programs functionally over a rank image.
type Machine struct {
	hw  enmc.Config
	img *image.FullImage

	// Status registers (INIT/QUERY target these).
	regs [isa.NumRegs]uint64

	// Screener state.
	featImg []byte  // the feature buffer: one nibble-image row
	featI4  []int8  // its k decoded levels
	wgt     []byte  // loaded weight-image bytes the MAC array has not consumed
	row     []int8  // one decoded weight row
	psumI32 []int32 // integer accumulators, one per output row
	outTile int     // current 64-row output tile index
	// Outputs.
	Z          []float32 // dequantized screening outputs per shard row
	Candidates []int     // shard-local indices emitted by FILTER

	// Executor state.
	featF32   []float32 // current FP32 feature chunk
	chunkBase int       // byte offset of the chunk within a row
	psumF32   map[int]float32
	// ExactLogits maps shard-local row → exact logit computed by the
	// FP32 path.
	ExactLogits map[int]float32
	lastWgtRow  int // row of the last FP32 weight chunk load
}

// New builds a machine over a full rank image.
func New(hw enmc.Config, img *image.FullImage) *Machine {
	l := img.Rows
	return &Machine{
		hw:          hw,
		img:         img,
		psumI32:     make([]int32, 0, hw.BufBytes/4),
		Z:           make([]float32, 0, l),
		psumF32:     map[int]float32{},
		ExactLogits: map[int]float32{},
		featImg:     make([]byte, quant.RowBytes(img.K)),
		featI4:      make([]int8, img.K),
		row:         make([]int8, img.K),
		lastWgtRow:  -1,
	}
}

// Threshold returns the candidate threshold from the status register
// (float32 bits in RegThreshold).
func (m *Machine) Threshold() float32 {
	return math.Float32frombits(uint32(m.regs[isa.RegThreshold]))
}

// Run interprets the program. Instructions outside the screening /
// executor dataflow (BARRIER, NOP, RETURN, MOVE) are no-ops
// functionally.
func (m *Machine) Run(prog []enmc.Op) error {
	for i, op := range prog {
		if err := m.exec(op); err != nil {
			return fmt.Errorf("funcsim: op %d (%s): %w", i, op.I, err)
		}
	}
	return nil
}

func (m *Machine) exec(op enmc.Op) error {
	in := op.I
	nbytes := op.Bytes
	if nbytes <= 0 || nbytes > m.hw.BufBytes {
		nbytes = m.hw.BufBytes
	}
	mem := m.img.Mem

	switch in.Op {
	case isa.OpREG:
		if in.RW {
			if in.Reg == isa.RegBatch && in.Data > 1 {
				return fmt.Errorf("functional machine interprets batch-1 programs (got batch %d); batched screening repeats MACs per tile, which needs banked PSUM state the machine does not model", in.Data)
			}
			m.regs[in.Reg] = in.Data
		}

	case isa.OpLDR:
		addr := int(in.Data)
		switch in.Buf0 {
		case isa.BufFeatINT4:
			off := addr - int(m.img.Layout.FeatBase)
			if off < 0 || off+nbytes > len(m.featImg) || addr+nbytes > len(mem) {
				return fmt.Errorf("feature load outside the INT4 feature (%d+%d)", addr, nbytes)
			}
			copy(m.featImg[off:], mem[addr:addr+nbytes])
			quant.UnpackRow(m.featI4, m.featImg)
		case isa.BufWgtINT4:
			if addr+nbytes > len(mem) {
				return fmt.Errorf("weight load beyond image (%d+%d)", addr, nbytes)
			}
			m.wgt = append(m.wgt, mem[addr:addr+nbytes]...)
		case isa.BufFeatFP32:
			m.chunkBase = addr - m.img.FeatF32()
			if m.chunkBase < 0 {
				return fmt.Errorf("FP32 feature chunk before feature base")
			}
			m.featF32 = readFloats(mem, addr, nbytes/4)
		case isa.BufWgtFP32:
			off := addr - int(m.img.Layout.FullWBase)
			if off < 0 {
				return fmt.Errorf("FP32 weight load before FullWBase")
			}
			rowBytes := m.img.Hidden * 4
			m.lastWgtRow = off / rowBytes
			if off%rowBytes != m.chunkBase {
				return fmt.Errorf("weight chunk offset %d does not match feature chunk %d", off%rowBytes, m.chunkBase)
			}
		}

	case isa.OpMULADDINT4:
		// The MAC array consumes the loaded bytes a whole image row at
		// a time, each into the next PSUM entry; a row split across
		// tiles waits for the rest of its bytes.
		rowBytes := quant.RowBytes(m.img.K)
		for ; len(m.wgt) >= rowBytes; m.wgt = m.wgt[rowBytes:] {
			quant.UnpackRow(m.row, m.wgt)
			var acc int32
			for j, w := range m.row {
				acc += int32(w) * int32(m.featI4[j])
			}
			m.psumI32 = append(m.psumI32, acc)
		}

	case isa.OpFILTER:
		// Dequantize the accumulated rows, apply bias, threshold.
		th := m.Threshold()
		featScale := math.Float32frombits(uint32(m.regs[isa.RegFeatSize]))
		metaBase := m.img.MetaBase()
		biasBase := metaBase + 4*m.img.Rows
		for i, acc := range m.psumI32 {
			row := m.outTile*(m.hw.BufBytes/4) + i
			if row >= m.img.Rows {
				break
			}
			scale := math.Float32frombits(binary.LittleEndian.Uint32(mem[metaBase+4*row:]))
			bias := math.Float32frombits(binary.LittleEndian.Uint32(mem[biasBase+4*row:]))
			z := float32(acc)*scale*featScale + bias
			m.Z = append(m.Z, z)
			if z >= th {
				m.Candidates = append(m.Candidates, row)
			}
		}
		m.psumI32 = m.psumI32[:0]
		m.outTile++

	case isa.OpMULADDFP32:
		if m.lastWgtRow < 0 {
			return fmt.Errorf("FP32 MULADD before a weight load")
		}
		rowBytes := m.img.Hidden * 4
		off := int(m.img.Layout.FullWBase) + m.lastWgtRow*rowBytes + m.chunkBase
		n := len(m.featF32)
		w := readFloats(mem, off, n)
		var acc float32
		for j := 0; j < n; j++ {
			acc += w[j] * m.featF32[j]
		}
		m.psumF32[m.lastWgtRow] += acc

	case isa.OpSOFTMAX, isa.OpSIGMOID:
		// Normalization happens over the PSUM; the machine keeps raw
		// logits so tests can compare against the classifier. Snapshot
		// them as final.
		for row, v := range m.psumF32 {
			m.ExactLogits[row] = v
		}

	default:
		// BARRIER, NOP, MOVE, RETURN, STR, CLR: no functional effect
		// at this abstraction level.
	}
	return nil
}

func readFloats(mem []byte, addr, n int) []float32 {
	out := make([]float32, n)
	for i := 0; i < n; i++ {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(mem[addr+4*i:]))
	}
	return out
}
