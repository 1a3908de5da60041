package cluster

// Binary wire codec v2 — the only codec of the cluster screen RPC
// (/v1/shard/screen). Requests and replies are little-endian
// length-prefixed binary frames:
//
//	header (12 bytes, both kinds):
//	  [0:4]   magic "ENM2"
//	  [4]     wire version (2)
//	  [5]     frame kind (1 = screen request, 2 = screen response)
//	  [6:8]   reserved, must be zero
//	  [8:12]  uint32 payload length (bytes after the header)
//
//	request payload:
//	  uint32 m, uint32 nItems, uint32 hidden
//	  nItems×hidden float32 (raw IEEE-754 bits, row-major)
//
//	response payload:
//	  uint32 offset, uint32 classes
//	  uint16 versionLen + version bytes
//	  uint32 nItems, then nItems × uint32 candidate count
//	  Σcounts × (uint32 global class, float32 logit)
//	  uint32 nSpans, then per span:
//	    uint16 nameLen + bytes, uint16 catLen + bytes,
//	    int32 tid, int64 start, int64 dur
//
// Floats travel as raw bits, so NaN/Inf and every denormal round-trip
// bit-exactly — the merged cluster result over this codec is
// bit-identical to the in-process distributed.Classify and to
// single-node core.ClassifyApprox.
//
// Decoding is strict: wrong magic/version/kind, a payload length that
// disagrees with the body, counts that overflow or do not sum to the
// pair block, truncation at any field boundary, and trailing bytes
// all reject the frame. Frames over MaxFrameBytes are refused before
// any allocation is sized from attacker-controlled counts.
//
// Encode appends into caller-supplied buffers and decode reuses a
// pooled WireScratch, so the steady-state RPC path allocates nothing
// on either side.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
)

// ContentTypeScreenV2 is the media type of both screen frames. A
// worker refuses any other request Content-Type with 415.
const ContentTypeScreenV2 = "application/x-enmc-screen-v2"

// WireVersion is the frame version this codec speaks. A bump means a
// layout change; a peer on another version rejects the frame (400)
// instead of misparsing it.
const WireVersion = 2

const (
	frameMagic     = "ENM2"
	frameHeaderLen = 12

	frameKindRequest  = 1
	frameKindResponse = 2
)

// MaxFrameBytes bounds one screen frame in either direction (1 GiB).
// Both ends wrap their reads in io.LimitReader at this bound and the
// decoder refuses larger length prefixes, so a corrupt or hostile
// peer cannot make the other side buffer unbounded memory.
const MaxFrameBytes = 1 << 30

// Internal geometry ceilings: generous (far past any real serving
// shape) but small enough that count×size arithmetic cannot overflow
// or force a pathological allocation before the payload-length
// cross-check runs.
const (
	maxWireItems  = 1 << 24 // batch items per frame
	maxWireHidden = 1 << 24 // hidden dimension
)

type wireError struct{ msg string }

func (e *wireError) Error() string { return "cluster: wire: " + e.msg }

func wireErrorf(format string, args ...interface{}) error {
	return &wireError{msg: fmt.Sprintf(format, args...)}
}

// --- encoding ---

func appendHeader(dst []byte, kind byte) []byte {
	dst = append(dst, frameMagic...)
	dst = append(dst, WireVersion, kind, 0, 0)
	return append(dst, 0, 0, 0, 0) // payload length, patched by finishFrame
}

// finishFrame patches the payload length of the frame that starts at
// `start` in dst.
func finishFrame(dst []byte, start int) ([]byte, error) {
	payload := len(dst) - start - frameHeaderLen
	if payload < 0 || payload > MaxFrameBytes {
		return nil, wireErrorf("frame payload %d bytes exceeds limit %d", payload, MaxFrameBytes)
	}
	binary.LittleEndian.PutUint32(dst[start+8:], uint32(payload))
	return dst, nil
}

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendShortString(dst []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return nil, wireErrorf("string field %d bytes exceeds %d", len(s), math.MaxUint16)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

// AppendScreenRequest encodes one ScreenRequest frame onto dst and
// returns the extended slice. Every batch row must have the same
// length; an empty batch encodes with hidden 0.
func AppendScreenRequest(dst []byte, m int, batch [][]float32) ([]byte, error) {
	if m < 0 || uint64(m) > math.MaxUint32 {
		return nil, wireErrorf("m %d out of range", m)
	}
	if len(batch) > maxWireItems {
		return nil, wireErrorf("batch of %d items exceeds limit %d", len(batch), maxWireItems)
	}
	hidden := 0
	if len(batch) > 0 {
		hidden = len(batch[0])
	}
	if hidden > maxWireHidden {
		return nil, wireErrorf("hidden dim %d exceeds limit %d", hidden, maxWireHidden)
	}
	// One allocation at most: the frame's size is known up front.
	dst = slices.Grow(dst, frameHeaderLen+12+4*len(batch)*hidden)
	start := len(dst)
	dst = appendHeader(dst, frameKindRequest)
	dst = appendU32(dst, uint32(m))
	dst = appendU32(dst, uint32(len(batch)))
	dst = appendU32(dst, uint32(hidden))
	for i, row := range batch {
		if len(row) != hidden {
			return nil, wireErrorf("batch item %d has %d features, item 0 has %d", i, len(row), hidden)
		}
		for _, f := range row {
			dst = appendU32(dst, math.Float32bits(f))
		}
	}
	return finishFrame(dst, start)
}

// AppendScreenResponse encodes one ScreenResponse frame onto dst and
// returns the extended slice.
func AppendScreenResponse(dst []byte, resp *ScreenResponse) ([]byte, error) {
	if resp.Offset < 0 || resp.Classes < 0 {
		return nil, wireErrorf("negative geometry offset=%d classes=%d", resp.Offset, resp.Classes)
	}
	if len(resp.Items) > maxWireItems {
		return nil, wireErrorf("%d reply items exceed limit %d", len(resp.Items), maxWireItems)
	}
	start := len(dst)
	dst = appendHeader(dst, frameKindResponse)
	dst = appendU32(dst, uint32(resp.Offset))
	dst = appendU32(dst, uint32(resp.Classes))
	var err error
	if dst, err = appendShortString(dst, resp.Version); err != nil {
		return nil, err
	}
	dst = appendU32(dst, uint32(len(resp.Items)))
	for _, item := range resp.Items {
		dst = appendU32(dst, uint32(len(item)))
	}
	for _, item := range resp.Items {
		for _, c := range item {
			if c.Class < 0 || uint64(c.Class) > math.MaxUint32 {
				return nil, wireErrorf("candidate class %d out of range", c.Class)
			}
			dst = appendU32(dst, uint32(c.Class))
			dst = appendU32(dst, math.Float32bits(c.Logit))
		}
	}
	dst = appendU32(dst, uint32(len(resp.Spans)))
	for _, sp := range resp.Spans {
		if dst, err = appendShortString(dst, sp.Name); err != nil {
			return nil, err
		}
		if dst, err = appendShortString(dst, sp.Cat); err != nil {
			return nil, err
		}
		dst = appendU32(dst, uint32(int32(sp.TID)))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(sp.Start))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(sp.Dur))
	}
	return finishFrame(dst, start)
}

// --- decoding ---

// frameCursor walks a frame payload with bounds checking; every read
// past the end is a truncation error naming the field.
type frameCursor struct {
	data []byte
	off  int
}

func (c *frameCursor) remaining() int { return len(c.data) - c.off }

func (c *frameCursor) u32(field string) (uint32, error) {
	if c.remaining() < 4 {
		return 0, wireErrorf("truncated frame: %d bytes left reading %s", c.remaining(), field)
	}
	v := binary.LittleEndian.Uint32(c.data[c.off:])
	c.off += 4
	return v, nil
}

func (c *frameCursor) u64(field string) (uint64, error) {
	if c.remaining() < 8 {
		return 0, wireErrorf("truncated frame: %d bytes left reading %s", c.remaining(), field)
	}
	v := binary.LittleEndian.Uint64(c.data[c.off:])
	c.off += 8
	return v, nil
}

func (c *frameCursor) shortString(field string) (string, error) {
	if c.remaining() < 2 {
		return "", wireErrorf("truncated frame: %d bytes left reading %s length", c.remaining(), field)
	}
	n := int(binary.LittleEndian.Uint16(c.data[c.off:]))
	c.off += 2
	if c.remaining() < n {
		return "", wireErrorf("truncated frame: %s claims %d bytes, %d left", field, n, c.remaining())
	}
	s := string(c.data[c.off : c.off+n])
	c.off += n
	return s, nil
}

// checkHeader validates magic/version/kind and the payload length
// prefix against the actual body, returning the payload cursor.
func checkHeader(data []byte, wantKind byte) (frameCursor, error) {
	if len(data) < frameHeaderLen {
		return frameCursor{}, wireErrorf("frame of %d bytes is shorter than the %d-byte header", len(data), frameHeaderLen)
	}
	if string(data[:4]) != frameMagic {
		return frameCursor{}, wireErrorf("bad magic %q (want %q)", data[:4], frameMagic)
	}
	if data[4] != WireVersion {
		return frameCursor{}, wireErrorf("unsupported wire version %d (this codec speaks %d)", data[4], WireVersion)
	}
	if data[5] != wantKind {
		return frameCursor{}, wireErrorf("frame kind %d, want %d", data[5], wantKind)
	}
	if data[6] != 0 || data[7] != 0 {
		return frameCursor{}, wireErrorf("nonzero reserved header bytes")
	}
	payload := binary.LittleEndian.Uint32(data[8:])
	if payload > MaxFrameBytes {
		return frameCursor{}, wireErrorf("payload length %d exceeds limit %d", payload, MaxFrameBytes)
	}
	if int(payload) != len(data)-frameHeaderLen {
		return frameCursor{}, wireErrorf("payload length prefix %d disagrees with %d body bytes", payload, len(data)-frameHeaderLen)
	}
	return frameCursor{data: data, off: frameHeaderLen}, nil
}

// WireScratch is the pooled decode arena: batch rows, candidate
// items, and spans decode into slices carved out of these backing
// arrays, so a steady-state decode allocates nothing. The decoded
// views stay valid until Release returns the scratch to the pool.
type WireScratch struct {
	buf    []byte // frame read buffer (ReadFrame)
	floats []float32
	rows   [][]float32
	cands  []WireCandidate
	items  [][]WireCandidate
	spans  []SpanWire
	resp   ScreenResponse
}

var wireScratchPool = sync.Pool{New: func() interface{} { return new(WireScratch) }}

// GetWireScratch fetches a decode scratch from the pool.
func GetWireScratch() *WireScratch { return wireScratchPool.Get().(*WireScratch) }

// Release returns the scratch (and every slice decoded into it) to
// the pool. The caller must be done with all views.
func (s *WireScratch) Release() { wireScratchPool.Put(s) }

func (s *WireScratch) growFloats(n int) []float32 {
	if cap(s.floats) < n {
		s.floats = make([]float32, n)
	}
	return s.floats[:n]
}

func (s *WireScratch) growRows(n int) [][]float32 {
	if cap(s.rows) < n {
		s.rows = make([][]float32, n)
	}
	return s.rows[:n]
}

func (s *WireScratch) growCands(n int) []WireCandidate {
	if cap(s.cands) < n {
		s.cands = make([]WireCandidate, n)
	}
	return s.cands[:n]
}

func (s *WireScratch) growItems(n int) [][]WireCandidate {
	if cap(s.items) < n {
		s.items = make([][]WireCandidate, n)
	}
	return s.items[:n]
}

// ReadFrame reads one length-prefixed frame from r into the scratch
// buffer and returns the full frame bytes (header included). The
// reader is wrapped in io.LimitReader at MaxFrameBytes so a missing
// or lying length prefix cannot force an unbounded read, and the
// buffer grows only with the bytes that arrive.
func (s *WireScratch) ReadFrame(r io.Reader) ([]byte, error) {
	lr := io.LimitReader(r, MaxFrameBytes+frameHeaderLen)
	if cap(s.buf) < frameHeaderLen {
		s.buf = make([]byte, frameHeaderLen, 4096)
	}
	head := s.buf[:frameHeaderLen]
	if _, err := io.ReadFull(lr, head); err != nil {
		return nil, wireErrorf("reading frame header: %v", err)
	}
	payload := binary.LittleEndian.Uint32(head[8:])
	if payload > MaxFrameBytes {
		return nil, wireErrorf("payload length %d exceeds limit %d", payload, MaxFrameBytes)
	}
	total := frameHeaderLen + int(payload)
	// The prefix is only the peer's claim: grow toward it as bytes
	// actually arrive, so a 12-byte body cannot size a 1 GiB buffer.
	s.buf = head
	for len(s.buf) < total {
		if len(s.buf) == cap(s.buf) {
			s.buf = slices.Grow(s.buf, len(s.buf)) // double
		}
		n, err := io.ReadFull(lr, s.buf[len(s.buf):min(cap(s.buf), total)])
		s.buf = s.buf[:len(s.buf)+n]
		if err != nil {
			return nil, wireErrorf("reading %d-byte payload: %v", payload, err)
		}
	}
	return s.buf, nil
}

// DecodeScreenRequest decodes a request frame. The returned batch
// rows are views into the scratch.
func DecodeScreenRequest(data []byte, sc *WireScratch) (m int, batch [][]float32, err error) {
	cur, err := checkHeader(data, frameKindRequest)
	if err != nil {
		return 0, nil, err
	}
	mw, err := cur.u32("m")
	if err != nil {
		return 0, nil, err
	}
	nItems, err := cur.u32("nItems")
	if err != nil {
		return 0, nil, err
	}
	hidden, err := cur.u32("hidden")
	if err != nil {
		return 0, nil, err
	}
	if nItems > maxWireItems {
		return 0, nil, wireErrorf("%d batch items exceed limit %d", nItems, maxWireItems)
	}
	if hidden > maxWireHidden {
		return 0, nil, wireErrorf("hidden dim %d exceeds limit %d", hidden, maxWireHidden)
	}
	if nItems == 0 && hidden != 0 {
		// The encoder writes hidden 0 for an empty batch; anything else
		// would decode to a frame that re-encodes differently.
		return 0, nil, wireErrorf("empty batch declares hidden dim %d", hidden)
	}
	want := uint64(nItems) * uint64(hidden) * 4
	if uint64(cur.remaining()) != want {
		return 0, nil, wireErrorf("batch geometry %d×%d needs %d payload bytes, frame carries %d",
			nItems, hidden, want, cur.remaining())
	}
	floats := sc.growFloats(int(nItems) * int(hidden))
	for i := range floats {
		bits := binary.LittleEndian.Uint32(cur.data[cur.off:])
		cur.off += 4
		floats[i] = math.Float32frombits(bits)
	}
	batch = sc.growRows(int(nItems))
	for i := range batch {
		batch[i] = floats[i*int(hidden) : (i+1)*int(hidden) : (i+1)*int(hidden)]
	}
	return int(mw), batch, nil
}

// DecodeScreenResponse decodes a response frame into the scratch and
// returns a view valid until the scratch is released. Candidate
// counts are cross-checked against the pair block before any
// allocation is sized from them; a frame with bytes left after the
// span block is rejected.
func DecodeScreenResponse(data []byte, sc *WireScratch) (*ScreenResponse, error) {
	cur, err := checkHeader(data, frameKindResponse)
	if err != nil {
		return nil, err
	}
	offset, err := cur.u32("offset")
	if err != nil {
		return nil, err
	}
	classes, err := cur.u32("classes")
	if err != nil {
		return nil, err
	}
	version, err := cur.shortString("version")
	if err != nil {
		return nil, err
	}
	nItems, err := cur.u32("nItems")
	if err != nil {
		return nil, err
	}
	if nItems > maxWireItems {
		return nil, wireErrorf("%d reply items exceed limit %d", nItems, maxWireItems)
	}
	if uint64(cur.remaining()) < uint64(nItems)*4 {
		return nil, wireErrorf("truncated frame: %d bytes cannot hold %d candidate counts", cur.remaining(), nItems)
	}
	countsOff := cur.off
	var total uint64
	for i := 0; i < int(nItems); i++ {
		n, err := cur.u32("candidate count")
		if err != nil {
			return nil, err
		}
		total += uint64(n)
		if total*8 > uint64(len(data)) {
			// Cheap running overflow/oversize cut-off: the pair block can
			// never be larger than the frame itself.
			return nil, wireErrorf("candidate counts sum past the frame (%d pairs by item %d)", total, i)
		}
	}
	if uint64(cur.remaining()) < total*8 {
		return nil, wireErrorf("candidate counts sum to %d pairs (%d bytes), frame carries %d",
			total, total*8, cur.remaining())
	}
	cands := sc.growCands(int(total))
	for i := range cands {
		cls := binary.LittleEndian.Uint32(cur.data[cur.off:])
		bits := binary.LittleEndian.Uint32(cur.data[cur.off+4:])
		cur.off += 8
		cands[i] = WireCandidate{Class: int(cls), Logit: math.Float32frombits(bits)}
	}
	items := sc.growItems(int(nItems))
	pos := 0
	for i := range items {
		n := int(binary.LittleEndian.Uint32(data[countsOff+i*4:]))
		items[i] = cands[pos : pos+n : pos+n]
		pos += n
	}
	nSpans, err := cur.u32("nSpans")
	if err != nil {
		return nil, err
	}
	// Each span is at least 2+2+4+8+8 = 24 bytes; bound before sizing.
	if uint64(cur.remaining()) < uint64(nSpans)*24 {
		return nil, wireErrorf("truncated frame: %d bytes cannot hold %d spans", cur.remaining(), nSpans)
	}
	if cap(sc.spans) < int(nSpans) {
		sc.spans = make([]SpanWire, nSpans)
	}
	spans := sc.spans[:nSpans]
	for i := range spans {
		name, err := cur.shortString("span name")
		if err != nil {
			return nil, err
		}
		cat, err := cur.shortString("span cat")
		if err != nil {
			return nil, err
		}
		tid, err := cur.u32("span tid")
		if err != nil {
			return nil, err
		}
		start, err := cur.u64("span start")
		if err != nil {
			return nil, err
		}
		dur, err := cur.u64("span dur")
		if err != nil {
			return nil, err
		}
		spans[i] = SpanWire{Name: name, Cat: cat, TID: int(int32(tid)), Start: int64(start), Dur: int64(dur)}
	}
	if cur.remaining() != 0 {
		return nil, wireErrorf("%d trailing bytes after the span block", cur.remaining())
	}
	resp := &sc.resp
	*resp = ScreenResponse{
		Offset:  int(offset),
		Classes: int(classes),
		Version: version,
		Items:   items,
	}
	if nSpans > 0 {
		resp.Spans = spans
	}
	return resp, nil
}

// --- pooled encode buffers ---

// encBufPool holds request/response encode buffers. Pooled as
// pointers so the slice header does not allocate on Put.
var encBufPool = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, 4096)
	return &b
}}

// GetEncodeBuf fetches a reusable encode buffer (length 0).
func GetEncodeBuf() []byte { return (*(encBufPool.Get().(*[]byte)))[:0] }

// PutEncodeBuf returns an encode buffer to the pool. The caller must
// not touch the slice afterwards.
func PutEncodeBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	encBufPool.Put(&b)
}
