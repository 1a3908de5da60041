package cluster

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"
)

// --- round trips ---

func testRequestBatch() [][]float32 {
	return [][]float32{
		{1, -2.5, 3.25, 0},
		{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), -0},
		{1e-45, math.MaxFloat32, math.SmallestNonzeroFloat32, 0.1}, // denormal, extremes
	}
}

func testResponse() *ScreenResponse {
	return &ScreenResponse{
		Offset:  30,
		Classes: 30,
		Version: "v2026-08-06",
		Items: [][]WireCandidate{
			{{Class: 31, Logit: 0.5}, {Class: 59, Logit: float32(math.Inf(-1))}},
			{},
			{{Class: 42, Logit: float32(math.NaN())}},
		},
		Spans: []SpanWire{
			{Name: "screen", Cat: "pipeline", TID: 3, Start: 100, Dur: 2000},
			{Name: "exact", Start: 2100, Dur: 900},
		},
	}
}

// bitsEqual compares float32s as raw bits so NaN payloads count.
func bitsEqual(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

func TestRequestRoundTrip(t *testing.T) {
	batch := testRequestBatch()
	frame, err := AppendScreenRequest(nil, 17, batch)
	if err != nil {
		t.Fatal(err)
	}
	sc := GetWireScratch()
	defer sc.Release()
	m, got, err := DecodeScreenRequest(frame, sc)
	if err != nil {
		t.Fatal(err)
	}
	if m != 17 || len(got) != len(batch) {
		t.Fatalf("m=%d items=%d, want 17, %d", m, len(got), len(batch))
	}
	for i, row := range batch {
		if len(got[i]) != len(row) {
			t.Fatalf("item %d: %d features, want %d", i, len(got[i]), len(row))
		}
		for j := range row {
			if !bitsEqual(got[i][j], row[j]) {
				t.Fatalf("item %d[%d]: bits %08x, want %08x (NaN/Inf must round-trip bit-exactly)",
					i, j, math.Float32bits(got[i][j]), math.Float32bits(row[j]))
			}
		}
	}
}

func TestRequestRoundTripEmptyBatch(t *testing.T) {
	frame, err := AppendScreenRequest(nil, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := GetWireScratch()
	defer sc.Release()
	m, got, err := DecodeScreenRequest(frame, sc)
	if err != nil {
		t.Fatal(err)
	}
	if m != 4 || len(got) != 0 {
		t.Fatalf("m=%d items=%d, want 4, 0", m, len(got))
	}
}

func TestRequestRaggedBatchRejected(t *testing.T) {
	if _, err := AppendScreenRequest(nil, 1, [][]float32{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged batch encoded")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	want := testResponse()
	frame, err := AppendScreenResponse(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	sc := GetWireScratch()
	defer sc.Release()
	got, err := DecodeScreenResponse(frame, sc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Offset != want.Offset || got.Classes != want.Classes || got.Version != want.Version {
		t.Fatalf("identity = %d/%d/%q, want %d/%d/%q",
			got.Offset, got.Classes, got.Version, want.Offset, want.Classes, want.Version)
	}
	if len(got.Items) != len(want.Items) {
		t.Fatalf("%d items, want %d", len(got.Items), len(want.Items))
	}
	for i, item := range want.Items {
		if len(got.Items[i]) != len(item) {
			t.Fatalf("item %d: %d candidates, want %d", i, len(got.Items[i]), len(item))
		}
		for j, c := range item {
			g := got.Items[i][j]
			if g.Class != c.Class || !bitsEqual(g.Logit, c.Logit) {
				t.Fatalf("item %d[%d] = (%d, %08x), want (%d, %08x)",
					i, j, g.Class, math.Float32bits(g.Logit), c.Class, math.Float32bits(c.Logit))
			}
		}
	}
	if len(got.Spans) != len(want.Spans) {
		t.Fatalf("%d spans, want %d", len(got.Spans), len(want.Spans))
	}
	for i, sp := range want.Spans {
		if got.Spans[i] != sp {
			t.Fatalf("span %d = %+v, want %+v", i, got.Spans[i], sp)
		}
	}
}

func TestResponseRoundTripEmpty(t *testing.T) {
	frame, err := AppendScreenResponse(nil, &ScreenResponse{})
	if err != nil {
		t.Fatal(err)
	}
	sc := GetWireScratch()
	defer sc.Release()
	got, err := DecodeScreenResponse(frame, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Items) != 0 || len(got.Spans) != 0 || got.Version != "" {
		t.Fatalf("got %+v, want zero response", got)
	}
}

// --- adversarial frames ---

// TestDecodeTruncationEveryBoundary feeds every strict prefix of a
// valid frame to the decoder twice: verbatim (the length prefix now
// disagrees with the body) and with the length prefix patched to
// match the truncated body (so the per-field bounds checks must catch
// it). Every prefix must be rejected; only the full frame decodes.
func TestDecodeTruncationEveryBoundary(t *testing.T) {
	reqFrame, err := AppendScreenRequest(nil, 9, testRequestBatch())
	if err != nil {
		t.Fatal(err)
	}
	respFrame, err := AppendScreenResponse(nil, testResponse())
	if err != nil {
		t.Fatal(err)
	}
	decodeReq := func(data []byte) error {
		sc := GetWireScratch()
		defer sc.Release()
		_, _, err := DecodeScreenRequest(data, sc)
		return err
	}
	decodeResp := func(data []byte) error {
		sc := GetWireScratch()
		defer sc.Release()
		_, err := DecodeScreenResponse(data, sc)
		return err
	}
	for name, tc := range map[string]struct {
		frame  []byte
		decode func([]byte) error
	}{
		"request":  {reqFrame, decodeReq},
		"response": {respFrame, decodeResp},
	} {
		if err := tc.decode(tc.frame); err != nil {
			t.Fatalf("%s: full frame rejected: %v", name, err)
		}
		for n := 0; n < len(tc.frame); n++ {
			cut := append([]byte(nil), tc.frame[:n]...)
			if err := tc.decode(cut); err == nil {
				t.Fatalf("%s: %d-byte truncation accepted (of %d)", name, n, len(tc.frame))
			}
			if n >= frameHeaderLen {
				binary.LittleEndian.PutUint32(cut[8:], uint32(n-frameHeaderLen))
				if err := tc.decode(cut); err == nil {
					t.Fatalf("%s: %d-byte truncation with patched length accepted", name, n)
				}
			}
		}
	}
}

func TestDecodeBadHeader(t *testing.T) {
	frame, err := AppendScreenResponse(nil, testResponse())
	if err != nil {
		t.Fatal(err)
	}
	mut := func(mutate func([]byte)) error {
		c := append([]byte(nil), frame...)
		mutate(c)
		sc := GetWireScratch()
		defer sc.Release()
		_, err := DecodeScreenResponse(c, sc)
		return err
	}
	for name, tc := range map[string]struct {
		mutate func([]byte)
		want   string
	}{
		"magic":     {func(b []byte) { b[0] = 'X' }, "bad magic"},
		"version":   {func(b []byte) { b[4] = 3 }, "unsupported wire version"},
		"kind":      {func(b []byte) { b[5] = frameKindRequest }, "frame kind"},
		"reserved":  {func(b []byte) { b[6] = 1 }, "reserved"},
		"lengthLie": {func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 5) }, "disagrees"},
	} {
		err := mut(tc.mutate)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
	// A response frame handed to the request decoder is a kind error.
	sc := GetWireScratch()
	defer sc.Release()
	if _, _, err := DecodeScreenRequest(frame, sc); err == nil || !strings.Contains(err.Error(), "frame kind") {
		t.Fatalf("request decoder took a response frame: %v", err)
	}
}

// TestDecodeCountsOverflow: candidate counts near MaxUint32 would
// overflow naive int arithmetic into a small allocation; the decoder
// must reject them on the running sum, not crash or over-allocate.
func TestDecodeCountsOverflow(t *testing.T) {
	var payload []byte
	payload = appendU32(payload, 0) // offset
	payload = appendU32(payload, 4) // classes
	payload = binary.LittleEndian.AppendUint16(payload, 0)
	payload = appendU32(payload, 2) // nItems
	payload = appendU32(payload, math.MaxUint32)
	payload = appendU32(payload, math.MaxUint32)
	frame := appendHeader(nil, frameKindResponse)
	frame = append(frame, payload...)
	frame, err := finishFrame(frame, 0)
	if err != nil {
		t.Fatal(err)
	}
	sc := GetWireScratch()
	defer sc.Release()
	_, err = DecodeScreenResponse(frame, sc)
	if err == nil || !strings.Contains(err.Error(), "sum past the frame") {
		t.Fatalf("err = %v, want counts-overflow rejection", err)
	}
}

// TestDecodeCountsDontSum: counts that fit the frame but disagree
// with the actual pair block length are rejected.
func TestDecodeCountsDontSum(t *testing.T) {
	resp := testResponse()
	frame, err := AppendScreenResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	// The count block starts after offset(4)+classes(4)+
	// versionLen(2)+version+nItems(4). Bump item 0's count by one.
	countsOff := frameHeaderLen + 4 + 4 + 2 + len(resp.Version) + 4
	n := binary.LittleEndian.Uint32(frame[countsOff:])
	binary.LittleEndian.PutUint32(frame[countsOff:], n+1)
	sc := GetWireScratch()
	defer sc.Release()
	if _, err := DecodeScreenResponse(frame, sc); err == nil {
		t.Fatal("counts disagreeing with the pair block accepted")
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	frame, err := AppendScreenResponse(nil, testResponse())
	if err != nil {
		t.Fatal(err)
	}
	frame = append(frame, 0xEE)
	binary.LittleEndian.PutUint32(frame[8:], uint32(len(frame)-frameHeaderLen))
	sc := GetWireScratch()
	defer sc.Release()
	if _, err := DecodeScreenResponse(frame, sc); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("err = %v, want trailing-bytes rejection", err)
	}
}

func TestDecodeOversizedFrame(t *testing.T) {
	frame := appendHeader(nil, frameKindResponse)
	binary.LittleEndian.PutUint32(frame[8:], MaxFrameBytes+1)
	sc := GetWireScratch()
	defer sc.Release()
	if _, err := DecodeScreenResponse(frame, sc); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("err = %v, want oversize rejection", err)
	}
	if _, err := sc.ReadFrame(bytes.NewReader(frame)); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("ReadFrame: err = %v, want oversize rejection before sizing the buffer", err)
	}
}

func TestReadFrame(t *testing.T) {
	want, err := AppendScreenResponse(nil, testResponse())
	if err != nil {
		t.Fatal(err)
	}
	sc := GetWireScratch()
	defer sc.Release()
	got, err := sc.ReadFrame(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("ReadFrame bytes differ from the encoded frame")
	}
	// A stream that ends mid-payload is a clean error, not a hang.
	if _, err := sc.ReadFrame(bytes.NewReader(want[:len(want)-3])); err == nil {
		t.Fatal("truncated stream accepted")
	}
	if _, err := sc.ReadFrame(bytes.NewReader(want[:5])); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, err := sc.ReadFrame(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

// --- fuzz ---

// FuzzDecodeScreenResponse: the decoder must never panic, and any
// frame it accepts must re-encode to the identical bytes (the format
// has exactly one canonical encoding — no slack the decoder ignores).
func FuzzDecodeScreenResponse(f *testing.F) {
	if seed, err := AppendScreenResponse(nil, testResponse()); err == nil {
		f.Add(seed)
		f.Add(seed[:len(seed)-2])
		mut := append([]byte(nil), seed...)
		mut[4] = 9
		f.Add(mut)
	}
	if seed, err := AppendScreenResponse(nil, &ScreenResponse{}); err == nil {
		f.Add(seed)
	}
	f.Add([]byte(frameMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := GetWireScratch()
		defer sc.Release()
		resp, err := DecodeScreenResponse(data, sc)
		if err != nil {
			return
		}
		re, err := AppendScreenResponse(nil, resp)
		if err != nil {
			t.Fatalf("accepted frame did not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("non-canonical frame accepted:\n in: %x\nout: %x", data, re)
		}
	})
}

// FuzzDecodeScreenRequest: same canonical-round-trip property for the
// request direction.
func FuzzDecodeScreenRequest(f *testing.F) {
	if seed, err := AppendScreenRequest(nil, 9, testRequestBatch()); err == nil {
		f.Add(seed)
	}
	if seed, err := AppendScreenRequest(nil, 1, nil); err == nil {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := GetWireScratch()
		defer sc.Release()
		m, batch, err := DecodeScreenRequest(data, sc)
		if err != nil {
			return
		}
		re, err := AppendScreenRequest(nil, m, batch)
		if err != nil {
			t.Fatalf("accepted frame did not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("non-canonical frame accepted:\n in: %x\nout: %x", data, re)
		}
	})
}

// --- allocation guards (PR 3 pattern) ---

// TestCodecSteadyStateAllocs: with a warm scratch and a pooled encode
// buffer, one encode+decode round trip of either direction allocates
// nothing. This is the property the RPC hot path is built on.
func TestCodecSteadyStateAllocs(t *testing.T) {
	batch := testRequestBatch()
	resp := testResponse()
	resp.Version = "" // a non-empty version decodes into one string alloc
	resp.Spans = nil  // span names likewise
	sc := GetWireScratch()
	defer sc.Release()
	buf := GetEncodeBuf()
	defer PutEncodeBuf(buf)

	// Warm: size the scratch and the buffer once.
	var err error
	if buf, err = AppendScreenRequest(buf[:0], 7, batch); err != nil {
		t.Fatal(err)
	}
	if _, _, err = DecodeScreenRequest(buf, sc); err != nil {
		t.Fatal(err)
	}

	if n := testing.AllocsPerRun(200, func() {
		buf, err = AppendScreenRequest(buf[:0], 7, batch)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err = DecodeScreenRequest(buf, sc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("request encode+decode allocates %.1f/op, want 0", n)
	}

	if buf, err = AppendScreenResponse(buf[:0], resp); err != nil {
		t.Fatal(err)
	}
	if _, err = DecodeScreenResponse(buf, sc); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		buf, err = AppendScreenResponse(buf[:0], resp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err = DecodeScreenResponse(buf, sc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("response encode+decode allocates %.1f/op, want 0", n)
	}
}

// TestAppendScreenRequestAllocsOnce: the router encodes each flush's
// frame onto nil, so the encoder must size the frame in one
// allocation instead of growing it by appends.
func TestAppendScreenRequestAllocsOnce(t *testing.T) {
	batch := testRequestBatch()
	want := 1.0
	if raceEnabled {
		want = 2
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := AppendScreenRequest(nil, 7, batch); err != nil {
			t.Fatal(err)
		}
	}); n != want {
		t.Fatalf("request encode onto nil allocates %.1f/op, want %.0f", n, want)
	}
}

// --- ReadFrame against a streaming reader ---

// onByteReader yields one byte per Read to make sure ReadFrame uses
// io.ReadFull semantics rather than assuming single-Read framing.
type oneByteReader struct{ r io.Reader }

func (o oneByteReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

func TestReadFrameShortReads(t *testing.T) {
	want, err := AppendScreenRequest(nil, 3, testRequestBatch())
	if err != nil {
		t.Fatal(err)
	}
	sc := GetWireScratch()
	defer sc.Release()
	got, err := sc.ReadFrame(oneByteReader{bytes.NewReader(want)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("ReadFrame over 1-byte reads differs")
	}
}
