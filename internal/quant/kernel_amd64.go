//go:build amd64 && !purego

package quant

// useAVX2 gates the assembly kernels and useVNNI their VNNI tier. Both
// are read from CPUID once at init; only tests change them afterwards,
// to run every tier in one binary.
var (
	useAVX2 = hasAVX2()
	useVNNI = useAVX2 && hasVNNI()
)

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM state (CPUID.1:ECX OSXSAVE+AVX, XGETBV XMM+YMM, CPUID.7:EBX AVX2).
func hasAVX2() bool

// hasVNNI reports whether the CPU implements AVX512_VNNI and AVX512VL
// and the OS saves the opmask and ZMM state (XGETBV bits 5–7), which
// the EVEX-encoded VPDPBUSD needs even on Y registers.
func hasVNNI() bool

// dotPacked8 writes, for each of 8·groups consecutive nibble-image
// rows starting at w (stride bytes apart), the int32 sum of (q+8)·x
// over the row: chunks whole 64-column chunks read against x, then —
// if tail is non-nil — one more chunk read against tail[0:64].
//
//go:noescape
func dotPacked8(w *byte, stride, chunks int, x, tail *int8, groups int, out *int32)

// dotPacked8VNNI is dotPacked8 on VPDPBUSD.
//
//go:noescape
func dotPacked8VNNI(w *byte, stride, chunks int, x, tail *int8, groups int, out *int32)

// dotPackedTile is dotPacked8 for BatchTile vectors and any number of
// rows up to blockRows: each weight chunk is loaded and unpacked once
// and multiplied into all four. tail, if non-nil, holds the four
// vectors' last chunks back to back; out[t·blockRows+r] is row r
// against vector t.
//
//go:noescape
func dotPackedTile(w *byte, stride, chunks int, xs *[BatchTile]*int8, tail *int8, rows int, out *int32)

// dotPackedTileVNNI is dotPackedTile on VNNI, two rows at a time.
//
//go:noescape
func dotPackedTileVNNI(w *byte, stride, chunks int, xs *[BatchTile]*int8, tail *int8, rows int, out *int32)

// dequant8 is the epilogue of both kernels for 8·groups rows: dst[r] =
// float32(acc[r]−off)·scales[r]·xs, rounded to float32, plus bias[r]
// when bias is non-nil — dequant's expression and order, so every
// output bit matches it.
//
//go:noescape
func dequant8(acc *int32, off int32, xs float32, scales, bias *float32, groups int, dst *float32)
