package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"enmc/internal/projection"
	"enmc/internal/quant"
	"enmc/internal/tensor"
)

// Binary serialization for trained artifacts, so a deployment flow
// can train once and ship the screener image to inference hosts: the
// quantized weights (one byte per element at every precision),
// per-row scales, the float bias, the float master weights (so
// distillation can resume), and the projection matrix reconstructed
// deterministically from its seed.
//
// All integers are little-endian. Each artifact starts with a magic
// and a version byte so mismatches fail loudly instead of decoding
// garbage.

const (
	screenerMagic   = "ENMCSCR1"
	classifierMagic = "ENMCCLS1"

	// maxProjectionEntries caps a screener artifact's k·d. P is
	// regenerated from the seed, so no byte of the file backs its
	// entries: without a cap a 20 KB header can ask for terabytes.
	// 2^26 entries (≈ 90 MB of index lists, well under a second to
	// draw) is 256× the largest Table 2 shape (d = 1 024, k = 256).
	maxProjectionEntries = 1 << 26
)

// WriteTo serializes the screener. Serializing is read-only: an
// unfrozen screener (QW == nil) is quantized into a local copy for
// the write — the same bytes Freeze would deploy — and the receiver
// is left exactly as it was (same bug class as WeightBytes once
// freezing as a side effect of a getter).
func (s *Screener) WriteTo(w io.Writer) (int64, error) {
	qw := s.QW
	if qw == nil {
		qw = s.quantized()
	}
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}

	if err := writeAll(cw,
		[]byte(screenerMagic),
		uint32(s.Cfg.Categories), uint32(s.Cfg.Hidden), uint32(s.Cfg.Reduced),
		uint32(s.Cfg.Precision), boolByte(s.Cfg.PerTensor), s.Cfg.Seed,
	); err != nil {
		return cw.n, err
	}
	// Quantized weights, one byte per element (valid for every
	// supported precision; the INT4 nibble-packing is a DRAM-image
	// concern, not a file-format one).
	q := make([]byte, len(qw.Q))
	for i, v := range qw.Q {
		q[i] = byte(v)
	}
	if err := writeAll(cw, uint32(len(q)), q); err != nil {
		return cw.n, err
	}
	if err := writeFloats(cw, qw.Scales); err != nil {
		return cw.n, err
	}
	if err := writeFloats(cw, s.Bt); err != nil {
		return cw.n, err
	}
	// Master float weights (optional but kept: retraining resumes).
	if err := writeFloats(cw, s.Wt.Data); err != nil {
		return cw.n, err
	}
	return cw.n, bw.Flush()
}

// ReadScreener deserializes a screener written by WriteTo.
func ReadScreener(r io.Reader) (*Screener, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(screenerMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading screener magic: %w", err)
	}
	if string(magic) != screenerMagic {
		return nil, fmt.Errorf("core: bad screener magic %q", magic)
	}
	var l, d, k, prec uint32
	var perTensor byte
	var seed uint64
	if err := readAll(br, &l, &d, &k, &prec, &perTensor, &seed); err != nil {
		return nil, err
	}
	cfg := Config{
		Categories: int(l), Hidden: int(d), Reduced: int(k),
		Precision: quant.Bits(prec), PerTensor: perTensor != 0, Seed: seed,
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if uint64(l)*uint64(k) > 1<<33 || uint64(k)*uint64(d) > maxProjectionEntries {
		return nil, fmt.Errorf("core: implausible screener shape l=%d d=%d k=%d", l, d, k)
	}
	var qLen uint32
	if err := readAll(br, &qLen); err != nil {
		return nil, err
	}
	if int(qLen) != int(l)*int(k) {
		return nil, fmt.Errorf("core: quantized weight length %d, want %d", qLen, int(l)*int(k))
	}
	// Grown as the bytes arrive, so a truncated file cannot size a
	// 4 GB buffer from its header; every block after this one is at
	// most 4 bytes per byte read here.
	var qBytes bytes.Buffer
	if _, err := io.CopyN(&qBytes, br, int64(qLen)); err != nil {
		return nil, fmt.Errorf("core: reading quantized weights: %w", err)
	}
	q := make([]int8, qLen)
	for i, b := range qBytes.Bytes() {
		q[i] = int8(b)
	}
	scales, err := readFloats(br, int(l))
	if err != nil {
		return nil, err
	}
	bias, err := readFloats(br, int(l))
	if err != nil {
		return nil, err
	}
	master, err := readFloats(br, int(l)*int(k))
	if err != nil {
		return nil, err
	}

	scr := &Screener{
		Cfg: cfg,
		P:   projection.New(cfg.Reduced, cfg.Hidden, cfg.Seed),
		Wt:  &tensor.Matrix{Rows: cfg.Categories, Cols: cfg.Reduced, Data: master},
		Bt:  bias,
		QW: &quant.Matrix{
			Bits: cfg.Precision, Rows: cfg.Categories, Cols: cfg.Reduced,
			Scales: scales, Q: q,
		},
	}
	scr.QW.BuildAccel()
	return scr, nil
}

// WriteTo serializes the full classifier (large: l×d float32).
func (c *Classifier) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}
	if err := writeAll(cw, []byte(classifierMagic), uint32(c.W.Rows), uint32(c.W.Cols)); err != nil {
		return cw.n, err
	}
	if err := writeFloats(cw, c.W.Data); err != nil {
		return cw.n, err
	}
	if err := writeFloats(cw, c.B); err != nil {
		return cw.n, err
	}
	return cw.n, bw.Flush()
}

// ReadClassifier deserializes a classifier written by WriteTo.
func ReadClassifier(r io.Reader) (*Classifier, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(classifierMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading classifier magic: %w", err)
	}
	if string(magic) != classifierMagic {
		return nil, fmt.Errorf("core: bad classifier magic %q", magic)
	}
	var rows, cols uint32
	if err := readAll(br, &rows, &cols); err != nil {
		return nil, err
	}
	if rows == 0 || cols == 0 || uint64(rows)*uint64(cols) > 1<<33 {
		return nil, fmt.Errorf("core: implausible classifier shape %dx%d", rows, cols)
	}
	data, err := readFloats(br, int(rows)*int(cols))
	if err != nil {
		return nil, err
	}
	bias, err := readFloats(br, int(rows))
	if err != nil {
		return nil, err
	}
	return NewClassifier(&tensor.Matrix{Rows: int(rows), Cols: int(cols), Data: data}, bias)
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeAll(w io.Writer, vs ...interface{}) error {
	for _, v := range vs {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

func readAll(r io.Reader, vs ...interface{}) error {
	for _, v := range vs {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

func writeFloats(w io.Writer, xs []float32) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(xs))); err != nil {
		return err
	}
	buf := make([]byte, 4*1024)
	for off := 0; off < len(xs); {
		n := 0
		for ; n < len(buf)/4 && off+n < len(xs); n++ {
			binary.LittleEndian.PutUint32(buf[n*4:], math.Float32bits(xs[off+n]))
		}
		if _, err := w.Write(buf[:n*4]); err != nil {
			return err
		}
		off += n
	}
	return nil
}

func readFloats(r io.Reader, want int) ([]float32, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if int(n) != want {
		return nil, fmt.Errorf("core: float block length %d, want %d", n, want)
	}
	out := make([]float32, n)
	buf := make([]byte, 4*1024)
	for off := 0; off < int(n); {
		chunk := len(buf) / 4
		if rem := int(n) - off; rem < chunk {
			chunk = rem
		}
		if _, err := io.ReadFull(r, buf[:chunk*4]); err != nil {
			return nil, err
		}
		for i := 0; i < chunk; i++ {
			out[off+i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
		}
		off += chunk
	}
	return out, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

const featuresMagic = "ENMCFEA1"

// WriteFeatures serializes a set of hidden-state vectors (all the
// same dimension) — the training-sample interchange format for
// enmc-train.
func WriteFeatures(w io.Writer, features [][]float32) (int64, error) {
	if len(features) == 0 {
		return 0, fmt.Errorf("core: no features to write")
	}
	d := len(features[0])
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}
	if err := writeAll(cw, []byte(featuresMagic), uint32(len(features)), uint32(d)); err != nil {
		return cw.n, err
	}
	for i, f := range features {
		if len(f) != d {
			return cw.n, fmt.Errorf("core: feature %d has dimension %d, want %d", i, len(f), d)
		}
		if err := writeFloats(cw, f); err != nil {
			return cw.n, err
		}
	}
	return cw.n, bw.Flush()
}

// ReadFeatures deserializes a feature set written by WriteFeatures.
func ReadFeatures(r io.Reader) ([][]float32, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(featuresMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading features magic: %w", err)
	}
	if string(magic) != featuresMagic {
		return nil, fmt.Errorf("core: bad features magic %q", magic)
	}
	var n, d uint32
	if err := readAll(br, &n, &d); err != nil {
		return nil, err
	}
	if n == 0 || d == 0 || uint64(n)*uint64(d) > 1<<32 {
		return nil, fmt.Errorf("core: implausible feature block %dx%d", n, d)
	}
	out := make([][]float32, n)
	for i := range out {
		f, err := readFloats(br, int(d))
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}
