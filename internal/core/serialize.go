package core

import (
	"bufio"
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
// quantized weights in the form the kernels stream (quant.Payload: the
// chunked nibble image at INT2/INT4, half a byte per weight plus row
// padding; one byte per weight at INT8), per-row scales and the float
// bias, with the projection matrix reconstructed deterministically from
// its seed. That is the whole deployable screener, the image the host
// writes into the DIMM; the float master weights stay with training.
//
// All integers are little-endian. Each artifact starts with a magic
// whose last byte is the format version, so mismatches fail loudly
// instead of decoding garbage. Readers never size an allocation from a
// header alone: every block grows as its bytes arrive (growFor).

const (
	// screenerMagic is version 3: the quant.Payload weight block, scales
	// and bias. Other versions (1: one byte per weight; 2: a trailing
	// block of float master weights) are rejected by name.
	screenerMagic   = "ENMCSCR3"
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
	p := qw.Payload()
	if err := writeAll(cw, uint32(len(p)), p); err != nil {
		return cw.n, err
	}
	for _, xs := range [][]float32{qw.Scales, s.Bt} {
		if err := writeFloats(cw, xs); err != nil {
			return cw.n, err
		}
	}
	return cw.n, bw.Flush()
}

// ReadScreener deserializes a screener written by WriteTo. The result
// is inference-only: Wt is nil (see Screener).
func ReadScreener(r io.Reader) (*Screener, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(screenerMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading screener magic: %w", err)
	}
	if string(magic) != screenerMagic {
		if string(magic[:7]) == screenerMagic[:7] {
			return nil, fmt.Errorf("core: screener format version %q, this build reads only %q: re-export the artifact", magic, screenerMagic)
		}
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
	if want := quant.PayloadBytes(cfg.Precision, int(l), int(k)); int(qLen) != want {
		return nil, fmt.Errorf("core: quantized weight block of %d bytes, want %d", qLen, want)
	}
	payload, err := readBytes(br, int(qLen))
	if err != nil {
		return nil, fmt.Errorf("core: reading quantized weights: %w", err)
	}
	scales, err := readFloats(br, int(l), nil)
	if err != nil {
		return nil, err
	}
	bias, err := readFloats(br, int(l), nil)
	if err != nil {
		return nil, err
	}
	qw, err := quant.FromPayload(cfg.Precision, int(l), int(k), scales, payload)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Screener{
		Cfg: cfg,
		P:   projection.New(cfg.Reduced, cfg.Hidden, cfg.Seed),
		Bt:  bias,
		QW:  qw,
	}, nil
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

// ReadClassifier deserializes a classifier written by WriteTo. Its
// weight block is advised onto transparent huge pages as soon as it is
// allocated at full size (tensor.AdviseHugePages), before the first
// weights are copied in: the exact gather reads scattered rows of W.
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
	data, err := readFloats(br, int(rows)*int(cols), tensor.AdviseHugePages)
	if err != nil {
		return nil, err
	}
	bias, err := readFloats(br, int(rows), nil)
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

// growFor returns s with capacity for at least need of the want
// elements a header announced, never allocating far ahead of the bytes
// that back it: capacity steps up 8× at a time while it stays under
// want/8, then jumps to want. A truncated or lying header thus costs at
// most 64× the bytes that arrived, an honest one at most an eighth of
// the block in transient copies. A non-nil final is called on the block
// that holds all want elements as soon as it is allocated, before the
// old elements are copied into it.
func growFor[T any](s []T, need, want int, final func([]T)) []T {
	if need <= cap(s) {
		return s
	}
	c := max(need, 8*cap(s))
	if c > want/8 {
		c = want
	}
	out := make([]T, c)
	if final != nil && c == want {
		final(out)
	}
	return out[:copy(out, s)]
}

// readBytes reads an n-byte block, growing it as the bytes arrive.
func readBytes(r io.Reader, n int) ([]byte, error) {
	var out []byte
	for len(out) < n {
		chunk := min(32*1024, n-len(out))
		out = growFor(out, len(out)+chunk, n, nil)
		if _, err := io.ReadFull(r, out[len(out):len(out)+chunk]); err != nil {
			return nil, err
		}
		out = out[:len(out)+chunk]
	}
	return out, nil
}

// readFloats reads a length-prefixed float block of want elements,
// growing it as the bytes arrive; final, when non-nil, sees the
// full-size block before anything is written to it.
func readFloats(r io.Reader, want int, final func([]float32)) ([]float32, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if int(n) != want {
		return nil, fmt.Errorf("core: float block length %d, want %d", n, want)
	}
	out := make([]float32, 0, min(want, 1024))
	buf := make([]byte, 4*1024)
	for len(out) < want {
		chunk := min(len(buf)/4, want-len(out))
		if _, err := io.ReadFull(r, buf[:chunk*4]); err != nil {
			return nil, err
		}
		out = growFor(out, len(out)+chunk, want, final)
		for i := 0; i < chunk; i++ {
			out = append(out, math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:])))
		}
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
	var out [][]float32 // appended, not pre-sized: n comes from the header
	for i := uint32(0); i < n; i++ {
		f, err := readFloats(br, int(d), nil)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
