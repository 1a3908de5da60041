package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"enmc/internal/quant"
	"enmc/internal/tensor"
	"enmc/internal/testkit"
	"enmc/internal/xrand"
)

func TestScreenerRoundTrip(t *testing.T) {
	cls, samples := testModel(t, 120, 64, 40)
	cfg := testConfig(120, 64)
	scr, _, err := TrainScreener(cls, samples, cfg, TrainOptions{Epochs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	n, err := scr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}

	got, err := ReadScreener(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cfg != scr.Cfg {
		t.Fatalf("config mismatch: %+v vs %+v", got.Cfg, scr.Cfg)
	}
	// The restored screener must produce bit-identical outputs.
	for _, h := range samples[:8] {
		a, b := scr.Screen(h), got.Screen(h)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("screen output diverged at %d: %v vs %v", i, a[i], b[i])
			}
		}
	}
	if got.Wt != nil {
		t.Fatal("a read screener carries master weights")
	}
}

func TestScreenerRoundTripINT8PerTensor(t *testing.T) {
	cls, samples := testModel(t, 60, 32, 20)
	cfg := Config{Categories: 60, Hidden: 32, Reduced: 8, Precision: quant.INT8, PerTensor: true, Seed: 5}
	scr, _, err := TrainScreener(cls, samples, cfg, TrainOptions{Epochs: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := scr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScreener(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Cfg.PerTensor || got.Cfg.Precision != quant.INT8 {
		t.Fatalf("flags lost: %+v", got.Cfg)
	}
	h := samples[0]
	a, b := scr.Screen(h), got.Screen(h)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("INT8 screen output diverged")
		}
	}
}

func TestClassifierRoundTrip(t *testing.T) {
	cls, samples := testModel(t, 80, 32, 4)
	var buf bytes.Buffer
	if _, err := cls.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadClassifier(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range samples {
		a, b := cls.Logits(h), got.Logits(h)
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("classifier logits diverged after round trip")
			}
		}
	}
}

// TestReadClassifierAdvisesHugePages: a served classifier's weight
// block (here 16 MiB) lies in a mapping whose VmFlags carry "hg", and
// reading it changes no bit.
func TestReadClassifierAdvisesHugePages(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("transparent huge pages are Linux only")
	}
	const rows, cols = 8192, 512
	w := tensor.NewMatrix(rows, cols)
	r := xrand.New(5)
	for i := range w.Data {
		w.Data[i] = r.NormFloat32()
	}
	bias := make([]float32, rows)
	for i := range bias {
		bias[i] = r.NormFloat32()
	}
	cls, err := NewClassifier(w, bias)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cls.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadClassifier(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got.W.Data {
		if math.Float32bits(v) != math.Float32bits(w.Data[i]) {
			t.Fatalf("W[%d] = %v after the round trip, want %v", i, v, w.Data[i])
		}
	}
	for i, v := range got.B {
		if math.Float32bits(v) != math.Float32bits(bias[i]) {
			t.Fatalf("B[%d] = %v after the round trip, want %v", i, v, bias[i])
		}
	}
	mid := uintptr(unsafe.Pointer(&got.W.Data[len(got.W.Data)/2]))
	m, err := testkit.MappingAt(mid)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(m.Flags, "hg") {
		t.Fatalf("mapping [%#x,%#x) holding a read 16 MiB W has VmFlags %v, want hg", m.Lo, m.Hi, m.Flags)
	}
	t.Logf("%s", tensor.HugePageSummary(got.W.Data))
}

func TestDeserializeRejectsGarbage(t *testing.T) {
	if _, err := ReadScreener(bytes.NewReader([]byte("NOTMAGIC"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadClassifier(bytes.NewReader([]byte("ENMCCLS1"))); err == nil {
		t.Fatal("truncated classifier accepted")
	}
	// Screener with corrupted header dimensions.
	cls, samples := testModel(t, 20, 16, 4)
	scr, _, err := TrainScreener(cls, samples, testConfig(20, 16), TrainOptions{Epochs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := scr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[9] = 0xff // scribble on Categories
	if _, err := ReadScreener(bytes.NewReader(b)); err == nil {
		t.Fatal("corrupted header accepted")
	}
	// Truncated payload.
	var buf2 bytes.Buffer
	if _, err := scr.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadScreener(bytes.NewReader(buf2.Bytes()[:buf2.Len()/2])); err == nil {
		t.Fatal("truncated screener accepted")
	}
}

// TestWriteToDoesNotMutate: serializing an unfrozen screener must
// not install QW as a side effect (the WeightBytes bug class) — and
// must still emit exactly the bytes the frozen screener would.
func TestWriteToDoesNotMutate(t *testing.T) {
	cls, _ := testModel(t, 40, 32, 4)
	scr, err := ProjectedScreener(cls, testConfig(40, 32))
	if err != nil {
		t.Fatal(err)
	}
	var frozen bytes.Buffer
	if _, err := scr.WriteTo(&frozen); err != nil {
		t.Fatal(err)
	}

	scr.QW = nil // unfrozen: the state right after construction/training mutation
	var unfrozen bytes.Buffer
	if _, err := scr.WriteTo(&unfrozen); err != nil {
		t.Fatal(err)
	}
	if scr.QW != nil {
		t.Fatal("WriteTo froze its receiver as a side effect")
	}
	if !bytes.Equal(frozen.Bytes(), unfrozen.Bytes()) {
		t.Fatal("unfrozen WriteTo bytes differ from the frozen serialization")
	}
}

// synthScreener builds a frozen screener with deterministic
// pseudo-random weights directly (no training), so the round-trip
// property test can sweep precisions and odd shapes cheaply.
func synthScreener(t testing.TB, l, d, k int, bits quant.Bits, perTensor bool, seed uint64) *Screener {
	t.Helper()
	scr, err := newScreener(Config{
		Categories: l, Hidden: d, Reduced: k,
		Precision: bits, PerTensor: perTensor, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(seed + 13)
	for i := range scr.Wt.Data {
		scr.Wt.Data[i] = r.NormFloat32()
	}
	for i := range scr.Bt {
		scr.Bt[i] = 0.25 * r.NormFloat32()
	}
	scr.Freeze()
	return scr
}

// screenOracle recomputes Screen(h) from the master weights alone,
// never reading QW: the quantizer's rule gives each weight's level
// (scale = max|w|/MaxLevel over the row, or the whole matrix when
// PerTensor, 1 where that is zero; level = w/scale rounded half away
// from zero and clamped), and a plain int32 dot product ends in the
// kernels' epilogue.
func screenOracle(scr *Screener, h []float32) []float32 {
	maxLevel := scr.Cfg.Precision.MaxLevel()
	qx := quant.QuantizeVector(scr.Project(h), scr.Cfg.Precision)
	out := make([]float32, scr.Wt.Rows)
	for i := range out {
		src := scr.Wt.Row(i)
		if scr.Cfg.PerTensor {
			src = scr.Wt.Data
		}
		s := tensor.MaxAbs(src) / float32(maxLevel)
		if s == 0 {
			s = 1
		}
		var acc int32
		for j, w := range scr.Wt.Row(i) {
			v, level := w/s, int32(0)
			if v >= 0 {
				level = min(int32(v+0.5), maxLevel)
			} else {
				level = max(int32(v-0.5), -maxLevel)
			}
			acc += level * int32(qx.Q[j])
		}
		out[i] = float32(float32(acc)*s*qx.Scale) + scr.Bt[i]
	}
	return out
}

// TestSerializeRoundTripProperty sweeps every supported precision ×
// odd (non-power-of-two, non-multiple-of-4) shapes and checks the
// round trip: the artifact is exactly 45 + l·rowBytes + 8·l bytes (a
// 37-byte header with the block length, the weight block, then scales
// and bias as length-prefixed floats — no master weights), the read
// screener has the same config and weight block and no Wt, and its
// screen outputs on random inputs are bit-identical to the original's
// and to screenOracle's, which recomputes every level from the
// original's master weights, so an image that decoded to other levels
// than the quantizer chose would show.
func TestSerializeRoundTripProperty(t *testing.T) {
	shapes := []struct{ l, d, k int }{
		{7, 11, 3},   // tiny, everything odd
		{33, 17, 5},  // four 8-row kernel groups plus one edge row
		{61, 32, 31}, // k just under a power of two
		{9, 80, 70},  // one whole 64-column chunk plus a tail
	}
	for _, bits := range []quant.Bits{quant.INT2, quant.INT4, quant.INT8} {
		for _, perTensor := range []bool{false, true} {
			for _, sh := range shapes {
				scr := synthScreener(t, sh.l, sh.d, sh.k, bits, perTensor, uint64(sh.l*sh.d)+uint64(bits))
				var buf bytes.Buffer
				n, err := scr.WriteTo(&buf)
				if err != nil {
					t.Fatalf("INT%d %dx%dx%d: %v", bits, sh.l, sh.d, sh.k, err)
				}
				if n != int64(buf.Len()) {
					t.Fatalf("INT%d %dx%dx%d: reported %d bytes, wrote %d", bits, sh.l, sh.d, sh.k, n, buf.Len())
				}
				rowBytes := quant.RowBytes(sh.k)
				if bits == quant.INT8 {
					rowBytes = sh.k
				}
				if want := 45 + sh.l*rowBytes + 8*sh.l; buf.Len() != want {
					t.Fatalf("INT%d %dx%dx%d: artifact of %d bytes, want %d", bits, sh.l, sh.d, sh.k, buf.Len(), want)
				}
				got, err := ReadScreener(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("INT%d %dx%dx%d: %v", bits, sh.l, sh.d, sh.k, err)
				}
				if got.Cfg != scr.Cfg {
					t.Fatalf("config mismatch: %+v vs %+v", got.Cfg, scr.Cfg)
				}
				if got.Wt != nil {
					t.Fatalf("INT%d %dx%dx%d: a read screener carries master weights", bits, sh.l, sh.d, sh.k)
				}
				if !bytes.Equal(scr.QW.Payload(), got.QW.Payload()) {
					t.Fatalf("INT%d %dx%dx%d: weight block changed across the round trip", bits, sh.l, sh.d, sh.k)
				}
				r := xrand.New(uint64(sh.d))
				for trial := 0; trial < 3; trial++ {
					h := make([]float32, sh.d)
					for i := range h {
						h[i] = r.NormFloat32()
					}
					a, b, c := scr.Screen(h), got.Screen(h), screenOracle(scr, h)
					for i := range a {
						if a[i] != b[i] || a[i] != c[i] {
							t.Fatalf("INT%d perTensor=%v %dx%dx%d: screen diverged at %d",
								bits, perTensor, sh.l, sh.d, sh.k, i)
						}
					}
				}
			}
		}
	}
}

// TestScreenerTruncatedStream: every proper prefix of a valid
// serialization must fail cleanly (error, no panic, never a bogus
// screener).
func TestScreenerTruncatedStream(t *testing.T) {
	scr := synthScreener(t, 7, 11, 3, quant.INT4, false, 3)
	var buf bytes.Buffer
	if _, err := scr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := ReadScreener(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at byte %d/%d accepted", cut, len(full))
		}
	}
	if _, err := ReadScreener(bytes.NewReader(full)); err != nil {
		t.Fatalf("full stream rejected: %v", err)
	}
}

// screenerHeader returns a screener artifact's header, up to and
// including the quantized-weight block length.
func screenerHeader(l, d, k uint32, qLen uint32) []byte {
	b := []byte(screenerMagic)
	for _, v := range []uint32{l, d, k, uint32(quant.INT4)} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	b = append(b, 0)                           // per-row scales
	b = binary.LittleEndian.AppendUint64(b, 1) // projection seed
	return binary.LittleEndian.AppendUint32(b, qLen)
}

// hugeProjectionArtifact is a 2.1 KB screener with l = 1, k = 4 096,
// d = 4 000 000 000 and a valid body: nothing in it is large but the
// k·d projection its header asks to be regenerated from the seed.
func hugeProjectionArtifact() []byte {
	const l, d, k = 1, 4_000_000_000, 4096
	weights := quant.PayloadBytes(quant.INT4, l, k)
	b := screenerHeader(l, d, k, uint32(weights))
	b = append(b, bytes.Repeat([]byte{0x88}, weights)...) // every level 0
	for range 2 {                                         // scales, bias: l floats of 1
		b = binary.LittleEndian.AppendUint32(b, l)
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(1))
	}
	return b
}

// TestReadScreenerRejectsHugeShapes: a header alone must not size an
// allocation. The projection P is regenerated from the seed, so a
// small artifact could once ask for a k·d one that killed the process
// (runtime: out of memory, not a recoverable panic); and the quantized
// weights were allocated at the header's length before any of them
// was read.
func TestReadScreenerRejectsHugeShapes(t *testing.T) {
	if _, err := ReadScreener(bytes.NewReader(hugeProjectionArtifact())); err == nil {
		t.Fatal("screener with a 4 096 × 4e9 projection accepted")
	}

	// l·RowBytes(k) = 2^30 weight bytes announced, none sent.
	trunc := screenerHeader(1<<20, 2048, 2048, 1<<30)
	assertSmallAlloc(t, "truncated screener", func() error {
		_, err := ReadScreener(bytes.NewReader(trunc))
		return err
	})
}

// assertSmallAlloc runs read, which must fail, and fails the test if it
// allocated 1 MB or more on the way.
func assertSmallAlloc(t *testing.T, what string, read func() error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := read()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("%s accepted", what)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("%s allocated %d bytes", what, n)
	}
}

// TestReadersGrowAsBytesArrive: ReadClassifier and ReadFeatures must
// not size a buffer from a header before its payload arrives. Each of
// these 20-byte files announces 256 MB to 1.5 GB (a header within the
// plausibility caps can announce tens of GB, a fatal out-of-memory
// error rather than a returned one) and must cost less than 1 MB.
func TestReadersGrowAsBytesArrive(t *testing.T) {
	header := func(magic string, vs ...uint32) []byte {
		b := []byte(magic)
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	for _, c := range []struct {
		what string
		data []byte
		read func(io.Reader) error
	}{
		{"classifier of 65 536 × 1 024", header(classifierMagic, 1<<16, 1<<10, 1<<26),
			func(r io.Reader) error { _, err := ReadClassifier(r); return err }},
		{"one feature of 2^28 floats", header(featuresMagic, 1, 1<<28, 1<<28),
			func(r io.Reader) error { _, err := ReadFeatures(r); return err }},
		{"2^26 features of 64 floats", header(featuresMagic, 1<<26, 64, 64),
			func(r io.Reader) error { _, err := ReadFeatures(r); return err }},
	} {
		assertSmallAlloc(t, c.what, func() error { return c.read(bytes.NewReader(c.data)) })
	}
}

// FuzzReadScreener: arbitrary bytes must yield an error or a screener
// whose re-encoding reads back to the same bytes — never a panic or
// an out-of-memory death. The committed corpus holds
// hugeProjectionArtifact.
func FuzzReadScreener(f *testing.F) {
	for _, bits := range []quant.Bits{quant.INT2, quant.INT4, quant.INT8} {
		var buf bytes.Buffer
		if _, err := synthScreener(f, 5, 9, 3, bits, bits == quant.INT8, 2).WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		scr, err := ReadScreener(bytes.NewReader(data))
		if err != nil {
			return
		}
		reencodeStable(t, scr.WriteTo, func(r io.Reader) (io.WriterTo, error) { return ReadScreener(r) })
	})
}

// FuzzReadClassifier: arbitrary bytes must yield an error or a
// classifier whose re-encoding reads back to the same bytes — never a
// panic or an out-of-memory death. The committed corpus holds the
// truncated huge headers of TestReadersGrowAsBytesArrive.
func FuzzReadClassifier(f *testing.F) {
	cls, _ := testModel(f, 6, 5, 1)
	var buf bytes.Buffer
	if _, err := cls.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		cls, err := ReadClassifier(bytes.NewReader(data))
		if err != nil {
			return
		}
		reencodeStable(t, cls.WriteTo, func(r io.Reader) (io.WriterTo, error) { return ReadClassifier(r) })
	})
}

// FuzzReadFeatures is FuzzReadClassifier for feature sets.
func FuzzReadFeatures(f *testing.F) {
	var buf bytes.Buffer
	if _, err := WriteFeatures(&buf, [][]float32{{1, -2, 3}, {0.5, 0, -0.25}}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		feats, err := ReadFeatures(bytes.NewReader(data))
		if err != nil {
			return
		}
		reencodeStable(t, featureSet(feats).WriteTo, func(r io.Reader) (io.WriterTo, error) {
			feats, err := ReadFeatures(r)
			return featureSet(feats), err
		})
	})
}

// featureSet gives a feature set the io.WriterTo the fuzz targets share.
type featureSet [][]float32

func (fs featureSet) WriteTo(w io.Writer) (int64, error) { return WriteFeatures(w, fs) }

// reencodeStable checks the fuzz property: an accepted input, written
// once, reads back and writes the same bytes again.
func reencodeStable(t *testing.T, write func(io.Writer) (int64, error), read func(io.Reader) (io.WriterTo, error)) {
	t.Helper()
	var a, b bytes.Buffer
	if _, err := write(&a); err != nil {
		t.Fatal(err)
	}
	again, err := read(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("re-encoded input rejected: %v", err)
	}
	if _, err := again.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("re-encoding is not stable")
	}
}

// TestSerializeBadMagicAndVersion: a wrong magic and a bumped format
// version byte must both be rejected, for screener and classifier.
func TestSerializeBadMagicAndVersion(t *testing.T) {
	scr := synthScreener(t, 8, 12, 4, quant.INT8, false, 4)
	var buf bytes.Buffer
	if _, err := scr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := append([]byte(nil), buf.Bytes()...)
	b[7] = '4' // "ENMCSCR3" -> "ENMCSCR4": a future format version
	if _, err := ReadScreener(bytes.NewReader(b)); err == nil {
		t.Fatal("bumped screener format version accepted")
	}
	// Version 1 (one byte per weight) and version 2 (float master
	// weights after the bias) are rejected by name.
	for _, v := range []string{"ENMCSCR1", "ENMCSCR2"} {
		b[7] = v[7]
		if _, err := ReadScreener(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), v) {
			t.Fatalf("version %c screener: error %v, want one naming %s", v[7], err, v)
		}
	}
	copy(b, "XXXXXXXX")
	if _, err := ReadScreener(bytes.NewReader(b)); err == nil {
		t.Fatal("bad screener magic accepted")
	}

	cls, _ := testModel(t, 10, 8, 1)
	var cbuf bytes.Buffer
	if _, err := cls.WriteTo(&cbuf); err != nil {
		t.Fatal(err)
	}
	cb := append([]byte(nil), cbuf.Bytes()...)
	cb[7] = '9' // "ENMCCLS1" -> "ENMCCLS9"
	if _, err := ReadClassifier(bytes.NewReader(cb)); err == nil {
		t.Fatal("bumped classifier format version accepted")
	}
	for cut := 0; cut < cbuf.Len(); cut += 7 {
		if _, err := ReadClassifier(bytes.NewReader(cbuf.Bytes()[:cut])); err == nil {
			t.Fatalf("truncated classifier at %d accepted", cut)
		}
	}
}

func TestFeaturesRoundTrip(t *testing.T) {
	_, samples := testModel(t, 20, 16, 12)
	var buf bytes.Buffer
	if _, err := WriteFeatures(&buf, samples); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFeatures(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(samples) {
		t.Fatalf("count %d", len(got))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != samples[i][j] {
				t.Fatal("feature values corrupted")
			}
		}
	}
	// Ragged input rejected.
	bad := [][]float32{make([]float32, 4), make([]float32, 5)}
	if _, err := WriteFeatures(&buf, bad); err == nil {
		t.Fatal("ragged features accepted")
	}
	if _, err := WriteFeatures(&buf, nil); err == nil {
		t.Fatal("empty features accepted")
	}
	if _, err := ReadFeatures(bytes.NewReader([]byte("WRONGMAG"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}
