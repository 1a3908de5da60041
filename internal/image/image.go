// Package image builds the DRAM image of a rank's screener shard —
// the bytes the host writes into the ENMC DIMM's address space during
// initialization (Fig. 10 phase 1): the INT4 nibble-image rows, their
// scales and biases, the FP32 classifier rows and the query's
// features, at the addresses the compiler assumes.
//
// The image is the correctness bridge between the repo's two halves:
// funcsim.Machine runs compiled programs over it and must reproduce
// core.Screener.Screen and the classifier's exact logits bit for bit.
// A timing simulator whose data layout cannot produce the algorithm's
// numbers is charging cycles for the wrong machine; that check rules
// it out.
package image

import (
	"encoding/binary"
	"fmt"
	"math"

	"enmc/internal/compiler"
	"enmc/internal/core"
	"enmc/internal/quant"
	"enmc/internal/tensor"
)

// RankImage is a byte-addressable slice of one rank's DRAM contents
// plus the shard geometry needed to interpret it.
type RankImage struct {
	Mem      []byte
	Layout   compiler.Layout
	RowStart int // first global class row stored on this rank
	Rows     int // rows stored
	K        int // reduced dimension
}

// BuildRank lays out rows [rowStart, rowStart+rows) of the screener
// into a rank image following the compiler's address map: the shard's
// rows of the screener's nibble image at ScrWBase (the bytes the host
// kernel streams, copied as one slice), then one float32 scale and one
// float32 bias per row; the quantized projected feature for hidden
// vector h goes at FeatBase as one image row of the same layout. The
// screener must be INT4 (the hardware's format).
func BuildRank(scr *core.Screener, rowStart, rows int, h []float32) (*RankImage, *quant.Vector, error) {
	if scr.QW == nil {
		return nil, nil, fmt.Errorf("image: screener not frozen")
	}
	if scr.Cfg.Precision != quant.INT4 {
		return nil, nil, fmt.Errorf("image: DRAM image format is INT4, screener is %v", scr.Cfg.Precision)
	}
	if rowStart < 0 || rows <= 0 || rowStart+rows > scr.Cfg.Categories {
		return nil, nil, fmt.Errorf("image: shard [%d,%d) out of range", rowStart, rowStart+rows)
	}
	k := scr.Cfg.Reduced

	task := compiler.Task{
		Categories: scr.Cfg.Categories,
		Hidden:     scr.Cfg.Hidden,
		Reduced:    k,
		Candidates: 1,
		Batch:      1,
	}
	lay := compiler.LayoutFor(task, rows)

	// Quantize the projected feature once, as a one-row matrix (the
	// rule QuantizeVector applies in Screen), which stores the image
	// row; qh is read back from it.
	fm := quant.QuantizeMatrix(&tensor.Matrix{Rows: 1, Cols: k, Data: scr.Project(h)}, quant.INT4)
	feat := fm.Payload()
	qh := &quant.Vector{Bits: quant.INT4, Scale: fm.Scales[0], Q: make([]int8, k)}
	fm.RowInto(qh.Q, 0)

	rowBytes := quant.RowBytes(k)
	img := &RankImage{
		Mem:      make([]byte, int(lay.FeatBase)+len(feat)),
		Layout:   lay,
		RowStart: rowStart,
		Rows:     rows,
		K:        k,
	}
	copy(img.Mem[lay.ScrWBase:], scr.QW.Payload()[rowStart*rowBytes:(rowStart+rows)*rowBytes])
	// Scales then biases, contiguous after the weights.
	metaBase := img.MetaBase()
	for r := 0; r < rows; r++ {
		binary.LittleEndian.PutUint32(img.Mem[metaBase+4*r:], math.Float32bits(scr.QW.Scales[rowStart+r]))
		binary.LittleEndian.PutUint32(img.Mem[metaBase+4*(rows+r):], math.Float32bits(scr.Bt[rowStart+r]))
	}
	copy(img.Mem[lay.FeatBase:], feat)
	return img, qh, nil
}

// MetaBase is the address of the per-row scales, right after the
// shard's weights; the biases follow the scales.
func (img *RankImage) MetaBase() int {
	return int(img.Layout.ScrWBase) + img.Rows*quant.RowBytes(img.K)
}

// FeatF32 is the address of the FP32 feature, right after the INT4 one.
func (img *RankImage) FeatF32() int { return int(img.Layout.FeatBase) + quant.RowBytes(img.K) }

// Bytes reports the image size.
func (img *RankImage) Bytes() int { return len(img.Mem) }

// FullImage extends a rank image with the FP32 classifier rows at
// FullWBase and the full-precision feature at its slot, so the
// Executor phase has its operands too.
type FullImage struct {
	*RankImage
	Hidden int
}

// BuildFull lays out the rank's screener shard plus the corresponding
// FP32 classifier rows and the full-precision feature — the complete
// per-rank DRAM contents of Fig. 10 phase 1.
func BuildFull(cls *core.Classifier, scr *core.Screener, rowStart, rows int, h []float32) (*FullImage, *quant.Vector, error) {
	base, qh, err := BuildRank(scr, rowStart, rows, h)
	if err != nil {
		return nil, nil, err
	}
	d := cls.Hidden()
	if d != scr.Cfg.Hidden {
		return nil, nil, fmt.Errorf("image: classifier hidden %d != screener %d", d, scr.Cfg.Hidden)
	}
	// Grow the memory to cover FullW rows and the FP32 feature.
	featF32 := base.FeatF32()
	need := featF32 + d*4
	if end := int(base.Layout.FullWBase) + rows*d*4; end > need {
		need = end
	}
	if need > len(base.Mem) {
		grown := make([]byte, need)
		copy(grown, base.Mem)
		base.Mem = grown
	}
	for r := 0; r < rows; r++ {
		row := cls.W.Row(rowStart + r)
		off := int(base.Layout.FullWBase) + r*d*4
		for j, v := range row {
			binary.LittleEndian.PutUint32(base.Mem[off+4*j:], math.Float32bits(v))
		}
	}
	for j, v := range h {
		binary.LittleEndian.PutUint32(base.Mem[featF32+4*j:], math.Float32bits(v))
	}
	return &FullImage{RankImage: base, Hidden: d}, qh, nil
}
