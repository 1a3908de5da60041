//go:build amd64 && !purego

#include "textflag.h"

// The nibble-image GEMV kernels. One chunk is 32 bytes = 64 weights:
// byte b holds column b (low nibble) and column b+32 (high nibble),
// each stored as q+8 in 0..15. Per chunk and row
//
//	lo  = w & 0x0f, hi = (w >> 4) & 0x0f          unsigned bytes ≤ 15
//	p   = VPMADDUBSW(lo, x[0:32])                 int16: 2 products, |p| ≤ 2·15·128
//	q   = VPMADDUBSW(hi, x[32:64])
//	s   = p + q                                   int16: |s| ≤ 4·15·128 = 7680 < 2¹⁵
//	acc += VPMADDWD(s, ones)                      int32 from here on
//
// so neither the saturating multiply-add nor the int16 add can ever
// clip, for any int8 activation, and the widening happens every chunk.
// Both kernels write raw int32 row sums: dotPacked8 one per row,
// dotPackedTile vector-major, vector t's sums TILELD bytes after
// vector t−1's (the Go side's blockRows int32s).
//
// dequant8 is the epilogue both kernels' sums go through: it writes
// exactly the 8·groups floats dst[0 : 8·groups], and reads as many
// sums, scales and (when bias is non-nil) biases. Per lane of 8 rows
//
//	v   = VCVTDQ2PS(acc − off)                    int32 wraps as Go's does; rounds to nearest
//	v   = v · scales[r]                           VMULPS, rounded
//	v   = v · xs                                  VMULPS, rounded
//	v   = v + bias[r]                             VADDPS, rounded; skipped when bias is nil
//
// which is Go's float32(float32(acc−off)·s·xs) + b step for step: no
// FMA, each operation rounded to float32 before the next, so the output
// equals quant's dequant bit for bit. Go runs the same expression on
// the ≤ 7 rows left over.

DATA nibMask<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+16(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+24(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibMask<>(SB), RODATA|NOPTR, $32

DATA ones16<>+0(SB)/8, $0x0001000100010001
DATA ones16<>+8(SB)/8, $0x0001000100010001
DATA ones16<>+16(SB)/8, $0x0001000100010001
DATA ones16<>+24(SB)/8, $0x0001000100010001
GLOBL ones16<>(SB), RODATA|NOPTR, $32

// TILELD is the distance between two vectors' sums in dotPackedTile's
// output: blockRows (256) int32s.
#define TILELD 1024

// Y14 = nibble mask, Y15 = int16 ones in both kernels.

// UNPACK loads the chunk at addr into Y8 (low nibbles) and Y9 (high).
#define UNPACK(addr) \
	VMOVDQU addr, Y8     \
	VPSRLW  $4, Y8, Y9   \
	VPAND   Y14, Y8, Y8  \
	VPAND   Y14, Y9, Y9

// MAC adds the unpacked chunk (Y8, Y9) times the activations xlo, xhi
// (registers or memory) into acc, using t0 and t1.
#define MAC(xlo, xhi, acc, t0, t1) \
	VPMADDUBSW xlo, Y8, t0  \
	VPMADDUBSW xhi, Y9, t1  \
	VPADDW     t1, t0, t0   \
	VPMADDWD   Y15, t0, t0  \
	VPADDD     t0, acc, acc

#define ROW8(addr, acc) \
	UNPACK(addr)            \
	MAC(Y12, Y13, acc, Y10, Y11)

// PFDIST is how far ahead of the row being multiplied both kernels
// prefetch. The image is row-major and contiguous, so "ahead" is plain
// byte distance, across rows, groups and the ≤ 256-row blocks the Go
// side calls in; past the last row the prefetch touches nothing that
// matters and cannot fault. A shared last-level cache may or may not
// still hold the 43 MB image when the next item is screened, and the
// hardware prefetcher alone streams a cold image at half the speed of
// a cached one, so the screen's time followed the neighbours' load
// (670 091×128, image evicted before each call vs left cached: one
// vector 9.0–10.4 vs 4.0–4.8 ms, a tile of four 11.5 vs 7.0–7.7 ms).
// With the look-ahead a cold image costs 4.1–4.8 and 7.4–7.8 ms, a
// cached one 2.4–3.5 and 6.5–7.1. 4, 8 and 16 KB measured alike.
#define PFDIST 8192

// func dotPacked8(w *byte, stride, chunks int, x, tail *int8, groups int, out *int32)
TEXT ·dotPacked8(SB), NOSPLIT, $0-56
	MOVQ    w+0(FP), SI
	MOVQ    stride+8(FP), BX
	MOVQ    groups+40(FP), CX
	MOVQ    out+48(FP), DI
	VMOVDQU nibMask<>(SB), Y14
	VMOVDQU ones16<>(SB), Y15
	LEAQ    (BX)(BX*2), R8   // 3·stride
	LEAQ    (BX)(BX*4), R9   // 5·stride
	LEAQ    (R8)(BX*4), R10  // 7·stride
	LEAQ    PFDIST(SI), R13  // look-ahead pointer, 256 bytes per chunk step

group8:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	MOVQ  SI, R12            // this chunk of row 0
	MOVQ  x+24(FP), DX
	MOVQ  chunks+16(FP), AX
	MOVQ  tail+32(FP), R11
	TESTQ AX, AX
	JZ    tail8

chunk8:
	// This step reads 32 bytes of each of 8 rows; the group is
	// 8·stride contiguous bytes, so fetching the next 256 bytes of the
	// image per step covers every line of it exactly once.
	PREFETCHT0 (R13)
	PREFETCHT0 64(R13)
	PREFETCHT0 128(R13)
	PREFETCHT0 192(R13)
	ADDQ       $256, R13
	VMOVDQU    (DX), Y12
	VMOVDQU    32(DX), Y13
	ROW8((R12), Y0)
	ROW8((R12)(BX*1), Y1)
	ROW8((R12)(BX*2), Y2)
	ROW8((R12)(R8*1), Y3)
	ROW8((R12)(BX*4), Y4)
	ROW8((R12)(R9*1), Y5)
	ROW8((R12)(R8*2), Y6)
	ROW8((R12)(R10*1), Y7)
	ADDQ    $32, R12
	ADDQ    $64, DX
	DECQ    AX
	JNZ     chunk8

tail8:
	// One more pass over the padded last chunk, against the tail copy.
	TESTQ R11, R11
	JZ    reduce8
	MOVQ  R11, DX
	XORQ  R11, R11
	MOVQ  $1, AX
	JMP   chunk8

reduce8:
	// Eight 8-lane accumulators → one vector of eight row sums.
	VPHADDD    Y1, Y0, Y0
	VPHADDD    Y3, Y2, Y2
	VPHADDD    Y5, Y4, Y4
	VPHADDD    Y7, Y6, Y6
	VPHADDD    Y2, Y0, Y0         // rows 0..3, once per 128-bit half
	VPHADDD    Y6, Y4, Y4         // rows 4..7
	VPERM2I128 $0x20, Y4, Y0, Y1  // low halves
	VPERM2I128 $0x31, Y4, Y0, Y0  // high halves
	VPADDD     Y1, Y0, Y0
	VMOVDQU    Y0, (DI)
	ADDQ       $32, DI
	LEAQ       (SI)(BX*8), SI
	DECQ       CX
	JNZ        group8
	VZEROUPPER
	RET

#define VEC4(xreg, acc, t0, t1) \
	MAC((xreg)(DX*1), 32(xreg)(DX*1), acc, t0, t1)

// func dotPackedTile(w *byte, stride, chunks int, xs *[4]*int8, tail *int8, rows int, out *int32)
// rows ≤ 256; out[t·256 + r] is row r against vector t.
TEXT ·dotPackedTile(SB), NOSPLIT, $0-56
	MOVQ    w+0(FP), SI
	MOVQ    stride+8(FP), BX
	MOVQ    rows+40(FP), CX
	MOVQ    out+48(FP), DI
	VMOVDQU nibMask<>(SB), Y14
	VMOVDQU ones16<>(SB), Y15

row4:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	MOVQ  xs+24(FP), AX
	MOVQ  0(AX), R8
	MOVQ  8(AX), R9
	MOVQ  16(AX), R10
	MOVQ  24(AX), R11
	MOVQ  SI, R12            // this chunk of the row
	XORQ  DX, DX             // byte offset into the activations
	MOVQ  chunks+16(FP), AX
	MOVQ  tail+32(FP), R13
	TESTQ AX, AX
	JZ    tail4

chunk4:
	PREFETCHT0 PFDIST(R12)
	UNPACK((R12))
	VEC4(R8, Y0, Y10, Y11)
	VEC4(R9, Y1, Y12, Y13)
	VEC4(R10, Y2, Y10, Y11)
	VEC4(R11, Y3, Y12, Y13)
	ADDQ $32, R12
	ADDQ $64, DX
	DECQ AX
	JNZ  chunk4

tail4:
	// One more pass over the padded last chunk: repoint the four
	// activation bases so that base+DX lands on their tail copies.
	TESTQ R13, R13
	JZ    reduce4
	SUBQ  DX, R13
	LEAQ  0(R13), R8
	LEAQ  64(R13), R9
	LEAQ  128(R13), R10
	LEAQ  192(R13), R11
	XORQ  R13, R13
	MOVQ  $1, AX
	JMP   chunk4

reduce4:
	// Four 8-lane accumulators → four int32, one per vector.
	VPHADDD      Y1, Y0, Y0
	VPHADDD      Y3, Y2, Y2
	VPHADDD      Y2, Y0, Y0  // vectors 0..3, once per 128-bit half
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VMOVD        X0, (DI)
	VPEXTRD      $1, X0, TILELD(DI)
	VPEXTRD      $2, X0, 2*TILELD(DI)
	VPEXTRD      $3, X0, 3*TILELD(DI)
	ADDQ         $4, DI
	ADDQ         BX, SI
	DECQ         CX
	JNZ          row4
	VZEROUPPER
	RET

// func dequant8(acc *int32, off int32, xs float32, scales, bias *float32, groups int, dst *float32)
TEXT ·dequant8(SB), NOSPLIT, $0-48
	MOVQ         acc+0(FP), SI
	MOVL         off+8(FP), AX
	VMOVD        AX, X14
	VPBROADCASTD X14, Y14
	VMOVSS       xs+12(FP), X15
	VBROADCASTSS X15, Y15
	MOVQ         scales+16(FP), DX
	MOVQ         bias+24(FP), R8
	MOVQ         groups+32(FP), CX
	MOVQ         dst+40(FP), DI
	TESTQ        CX, CX
	JZ           dqdone
	TESTQ        R8, R8
	JZ           dqplain

dqbias:
	VMOVDQU   (SI), Y0
	VPSUBD    Y14, Y0, Y0
	VCVTDQ2PS Y0, Y0
	VMULPS    (DX), Y0, Y0
	VMULPS    Y15, Y0, Y0
	VADDPS    (R8), Y0, Y0
	VMOVUPS   Y0, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DX
	ADDQ      $32, R8
	ADDQ      $32, DI
	DECQ      CX
	JNZ       dqbias
	JMP       dqdone

dqplain:
	VMOVDQU   (SI), Y0
	VPSUBD    Y14, Y0, Y0
	VCVTDQ2PS Y0, Y0
	VMULPS    (DX), Y0, Y0
	VMULPS    Y15, Y0, Y0
	VMOVUPS   Y0, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DX
	ADDQ      $32, DI
	DECQ      CX
	JNZ       dqplain

dqdone:
	VZEROUPPER
	RET

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX     // OSXSAVE | AVX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX              // OS saves XMM and YMM state
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX              // AVX2
	ANDL $1, BX
	MOVB BX, ret+0(FP)

done:
	RET
