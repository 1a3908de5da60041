//go:build amd64 && !purego

package quant

// useAVX2 gates the assembly kernels. It is read from CPUID once at
// init; only tests change it afterwards, to run both kernels in one
// binary.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM state (CPUID.1:ECX OSXSAVE+AVX, XGETBV XMM+YMM, CPUID.7:EBX AVX2).
func hasAVX2() bool

// dotPacked8 writes, for each of 8·groups consecutive nibble-image
// rows starting at w (stride bytes apart), the int32 sum of (q+8)·x
// over the row: chunks whole 64-column chunks read against x, then —
// if tail is non-nil — one more chunk read against tail[0:64].
//
//go:noescape
func dotPacked8(w *byte, stride, chunks int, x, tail *int8, groups int, out *int32)

// dotPackedTile is dotPacked8 for BatchTile vectors and any number of
// rows: each weight chunk is loaded and unpacked once and multiplied
// into all four. tail, if non-nil, holds the four vectors' last chunks
// back to back; out[4r+t] is row r against vector t.
//
//go:noescape
func dotPackedTile(w *byte, stride, chunks int, xs *[BatchTile]*int8, tail *int8, rows int, out *int32)
