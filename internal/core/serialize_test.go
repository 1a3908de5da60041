package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"enmc/internal/quant"
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
	// Master weights survive (training could resume).
	for i := range scr.Wt.Data {
		if got.Wt.Data[i] != scr.Wt.Data[i] {
			t.Fatal("master weights corrupted")
		}
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

// TestSerializeRoundTripProperty sweeps every supported precision ×
// odd (non-power-of-two, non-multiple-of-4) shapes and checks the
// round trip is bit-identical: config, master weights, and screen
// outputs on random inputs — against the original and against the
// same weights with no acceleration structure (a hand-assembled
// quant.Matrix screens on the scalar kernel), so a rebuilt nibble
// image that disagreed with Q would show; equal StreamBytes says the
// deserializer called BuildAccel and dispatches the kernel the
// original does.
func TestSerializeRoundTripProperty(t *testing.T) {
	shapes := []struct{ l, d, k int }{
		{7, 11, 3},   // tiny, everything odd
		{33, 17, 5},  // four 8-row kernel groups plus one scalar edge row
		{61, 32, 31}, // k just under a power of two
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
				got, err := ReadScreener(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("INT%d %dx%dx%d: %v", bits, sh.l, sh.d, sh.k, err)
				}
				if got.Cfg != scr.Cfg {
					t.Fatalf("config mismatch: %+v vs %+v", got.Cfg, scr.Cfg)
				}
				for i := range scr.Wt.Data {
					if got.Wt.Data[i] != scr.Wt.Data[i] {
						t.Fatalf("INT%d %dx%dx%d: master weights corrupted", bits, sh.l, sh.d, sh.k)
					}
				}
				if a, b := scr.QW.StreamBytes(), got.QW.StreamBytes(); a != b {
					t.Fatalf("INT%d %dx%dx%d: StreamBytes %d before, %d after the round trip", bits, sh.l, sh.d, sh.k, a, b)
				}
				scalar := *got
				scalar.QW = &quant.Matrix{Bits: got.QW.Bits, Rows: got.QW.Rows, Cols: got.QW.Cols, Scales: got.QW.Scales, Q: got.QW.Q}
				r := xrand.New(uint64(sh.d))
				for trial := 0; trial < 3; trial++ {
					h := make([]float32, sh.d)
					for i := range h {
						h[i] = r.NormFloat32()
					}
					a, b, c := scr.Screen(h), got.Screen(h), scalar.Screen(h)
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
// including the quantized-weight length.
func screenerHeader(l, d, k uint32, qLen uint32) []byte {
	b := []byte(screenerMagic)
	for _, v := range []uint32{l, d, k, uint32(quant.INT4)} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	b = append(b, 0)                           // per-row scales
	b = binary.LittleEndian.AppendUint64(b, 1) // projection seed
	return binary.LittleEndian.AppendUint32(b, qLen)
}

// hugeProjectionArtifact is a 20.5 KB screener with l = 1, k = 4 096,
// d = 4 000 000 000 and a valid body: nothing in it is large but the
// k·d projection its header asks to be regenerated from the seed.
func hugeProjectionArtifact() []byte {
	const l, d, k = 1, 4_000_000_000, 4096
	b := screenerHeader(l, d, k, l*k)
	b = append(b, make([]byte, l*k)...)    // quantized weights
	for _, n := range []int{l, l, l * k} { // scales, bias, master weights
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
		for i := 0; i < n; i++ {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(1))
		}
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

	// l·k = 2^31 weight bytes announced, none sent.
	trunc := screenerHeader(1<<20, 2048, 2048, 1<<31)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadScreener(bytes.NewReader(trunc))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated screener accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("a %d-byte truncated artifact allocated %d bytes", len(trunc), n)
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
		var a, b bytes.Buffer
		if _, err := scr.WriteTo(&a); err != nil {
			t.Fatal(err)
		}
		again, err := ReadScreener(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded screener rejected: %v", err)
		}
		if _, err := again.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("re-encoding is not stable")
		}
	})
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
	b[7] = '2' // "ENMCSCR1" -> "ENMCSCR2": a future format version
	if _, err := ReadScreener(bytes.NewReader(b)); err == nil {
		t.Fatal("bumped screener format version accepted")
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

// TestTrainInitFrom: warm-starting from a checkpointed screener must
// copy (not alias) the donor's weights and validate the config.
func TestTrainInitFrom(t *testing.T) {
	cls, samples := testModel(t, 30, 16, 24)
	cfg := testConfig(30, 16)
	first, _, err := TrainScreener(cls, samples, cfg, TrainOptions{Epochs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	donorW := append([]float32(nil), first.Wt.Data...)

	resumed, _, err := TrainScreener(cls, samples, cfg, TrainOptions{Epochs: 2, Seed: 9, InitFrom: first})
	if err != nil {
		t.Fatal(err)
	}
	// The donor is untouched; the resumed screener moved on from it.
	for i := range donorW {
		if first.Wt.Data[i] != donorW[i] {
			t.Fatal("InitFrom mutated the donor screener")
		}
	}
	if &resumed.Wt.Data[0] == &first.Wt.Data[0] {
		t.Fatal("InitFrom aliased the donor weights")
	}

	// Mismatched config is rejected.
	badCfg := cfg
	badCfg.Seed++
	if _, _, err := TrainScreener(cls, samples, badCfg, TrainOptions{Epochs: 1, InitFrom: first}); err == nil {
		t.Fatal("InitFrom with mismatched config accepted")
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
