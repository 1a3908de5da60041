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
// The VNNI kernels (dotPacked8VNNI, dotPackedTileVNNI) do the same
// multiply-add in one EVEX instruction per half,
//
//	acc += VPDPBUSD(lo, x[0:32]) + VPDPBUSD(hi, x[32:64])
//
// where each int32 lane adds four unsigned-by-signed byte products
// (|·| ≤ 4·15·128) straight into the accumulator: the lanes hold other
// partial sums than the AVX2 kernels', but integer addition is exact,
// so every row sum is the same int32.
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

// ROW8V is ROW8 on VNNI.
#define ROW8V(addr, acc) \
	UNPACK(addr)             \
	VPDPBUSD Y12, Y8, acc    \
	VPDPBUSD Y13, Y9, acc

// REDUCE8 folds the eight 8-lane accumulators Y0..Y7 into Y0, whose
// lane i is accumulator i's sum; it clobbers Y1..Y7.
#define REDUCE8 \
	VPHADDD    Y1, Y0, Y0         \
	VPHADDD    Y3, Y2, Y2         \
	VPHADDD    Y5, Y4, Y4         \
	VPHADDD    Y7, Y6, Y6         \
	VPHADDD    Y2, Y0, Y0         \
	VPHADDD    Y6, Y4, Y4         \
	VPERM2I128 $0x20, Y4, Y0, Y1  \
	VPERM2I128 $0x31, Y4, Y0, Y0  \
	VPADDD     Y1, Y0, Y0

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

// DOT8(ROW) is the body of dotPacked8 and dotPacked8VNNI, ROW the
// macro that multiplies one row's chunk into its accumulator. Each
// chunk step reads 32 bytes of each of 8 rows; a group is 8·stride
// contiguous bytes, so fetching the next 256 bytes of the image per
// step covers every line of it exactly once. After the whole chunks,
// one more pass over the padded last chunk reads the tail copy.
// R8, R9, R10 = 3, 5 and 7·stride, R12 = this chunk of the group's
// row 0, R13 = the look-ahead pointer, DX = the activations' chunk.
#define DOT8(ROW) \
	MOVQ    w+0(FP), SI          \
	MOVQ    stride+8(FP), BX     \
	MOVQ    groups+40(FP), CX    \
	MOVQ    out+48(FP), DI       \
	VMOVDQU nibMask<>(SB), Y14   \
	VMOVDQU ones16<>(SB), Y15    \
	LEAQ    (BX)(BX*2), R8       \
	LEAQ    (BX)(BX*4), R9       \
	LEAQ    (R8)(BX*4), R10      \
	LEAQ    PFDIST(SI), R13      \
group8:                          \
	VPXOR Y0, Y0, Y0             \
	VPXOR Y1, Y1, Y1             \
	VPXOR Y2, Y2, Y2             \
	VPXOR Y3, Y3, Y3             \
	VPXOR Y4, Y4, Y4             \
	VPXOR Y5, Y5, Y5             \
	VPXOR Y6, Y6, Y6             \
	VPXOR Y7, Y7, Y7             \
	MOVQ  SI, R12                \
	MOVQ  x+24(FP), DX           \
	MOVQ  chunks+16(FP), AX      \
	MOVQ  tail+32(FP), R11       \
	TESTQ AX, AX                 \
	JZ    tail8                  \
chunk8:                          \
	PREFETCHT0 (R13)             \
	PREFETCHT0 64(R13)           \
	PREFETCHT0 128(R13)          \
	PREFETCHT0 192(R13)          \
	ADDQ       $256, R13         \
	VMOVDQU    (DX), Y12         \
	VMOVDQU    32(DX), Y13       \
	ROW((R12), Y0)               \
	ROW((R12)(BX*1), Y1)         \
	ROW((R12)(BX*2), Y2)         \
	ROW((R12)(R8*1), Y3)         \
	ROW((R12)(BX*4), Y4)         \
	ROW((R12)(R9*1), Y5)         \
	ROW((R12)(R8*2), Y6)         \
	ROW((R12)(R10*1), Y7)        \
	ADDQ    $32, R12             \
	ADDQ    $64, DX              \
	DECQ    AX                   \
	JNZ     chunk8               \
tail8:                           \
	TESTQ R11, R11               \
	JZ    reduce8                \
	MOVQ  R11, DX                \
	XORQ  R11, R11               \
	MOVQ  $1, AX                 \
	JMP   chunk8                 \
reduce8:                         \
	REDUCE8                      \
	VMOVDQU    Y0, (DI)          \
	ADDQ       $32, DI           \
	LEAQ       (SI)(BX*8), SI    \
	DECQ       CX                \
	JNZ        group8            \
	VZEROUPPER                   \
	RET

// func dotPacked8(w *byte, stride, chunks int, x, tail *int8, groups int, out *int32)
TEXT ·dotPacked8(SB), NOSPLIT, $0-56
	DOT8(ROW8)

// func dotPacked8VNNI(w *byte, stride, chunks int, x, tail *int8, groups int, out *int32)
TEXT ·dotPacked8VNNI(SB), NOSPLIT, $0-56
	DOT8(ROW8V)

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

// UNPACK2 loads the chunks at addr0 and addr1 into Y8, Y9 (low and
// high nibbles of the first) and Y10, Y11 (of the second).
#define UNPACK2(addr0, addr1) \
	VMOVDQU addr0, Y8     \
	VMOVDQU addr1, Y10    \
	VPSRLW  $4, Y8, Y9    \
	VPSRLW  $4, Y10, Y11  \
	VPAND   Y14, Y8, Y8   \
	VPAND   Y14, Y9, Y9   \
	VPAND   Y14, Y10, Y10 \
	VPAND   Y14, Y11, Y11

// DP2 multiplies both unpacked chunks by one vector's activations
// xlo, xhi: the first row into acc0, the second into acc1.
#define DP2(xlo, xhi, acc0, acc1) \
	VPDPBUSD xlo, Y8, acc0  \
	VPDPBUSD xhi, Y9, acc0  \
	VPDPBUSD xlo, Y10, acc1 \
	VPDPBUSD xhi, Y11, acc1

// func dotPackedTileVNNI(w *byte, stride, chunks int, xs *[4]*int8, tail *int8, rows int, out *int32)
// dotPackedTile on VNNI, two rows per iteration: accumulator 2t is the
// first row against vector t and 2t+1 the second, so REDUCE8 leaves
// each vector's pair of sums side by side, and one 8-byte store puts
// them at out[t·256 + r : +2]. An odd last row is run as a pair with
// itself and only its own sums are stored. R8..R11 = the four
// activation vectors and R13 = their tail copies, loaded once; R12 and
// R14 = this chunk of the pair's two rows; DX = byte offset into the
// activations. Each chunk step loads the four vectors' activations
// into Y16..Y23 (EVEX registers) once for both rows: as memory
// operands of VPDPBUSD with an index register they would each be
// issued as two micro-ops, and the tile measured 4–7 % slower.
TEXT ·dotPackedTileVNNI(SB), NOSPLIT, $0-56
	MOVQ    w+0(FP), SI
	MOVQ    stride+8(FP), BX
	MOVQ    rows+40(FP), CX
	MOVQ    out+48(FP), DI
	MOVQ    xs+24(FP), AX
	MOVQ    0(AX), R8
	MOVQ    8(AX), R9
	MOVQ    16(AX), R10
	MOVQ    24(AX), R11
	MOVQ    tail+32(FP), R13
	VMOVDQU nibMask<>(SB), Y14
	TESTQ   CX, CX
	JZ      donep

pair:
	VPXOR   Y0, Y0, Y0
	VPXOR   Y1, Y1, Y1
	VPXOR   Y2, Y2, Y2
	VPXOR   Y3, Y3, Y3
	VPXOR   Y4, Y4, Y4
	VPXOR   Y5, Y5, Y5
	VPXOR   Y6, Y6, Y6
	VPXOR   Y7, Y7, Y7
	MOVQ    SI, R12
	LEAQ    (SI)(BX*1), R14
	CMPQ    CX, $1
	CMOVQEQ SI, R14          // an odd last row pairs with itself
	XORQ    DX, DX
	MOVQ    chunks+16(FP), AX
	TESTQ   AX, AX
	JZ      tailp

chunkp:
	PREFETCHT0 PFDIST(R12)
	PREFETCHT0 PFDIST(R14)
	UNPACK2((R12), (R14))
	VMOVDQU64 (R8)(DX*1), Y16
	VMOVDQU64 32(R8)(DX*1), Y17
	VMOVDQU64 (R9)(DX*1), Y18
	VMOVDQU64 32(R9)(DX*1), Y19
	VMOVDQU64 (R10)(DX*1), Y20
	VMOVDQU64 32(R10)(DX*1), Y21
	VMOVDQU64 (R11)(DX*1), Y22
	VMOVDQU64 32(R11)(DX*1), Y23
	DP2(Y16, Y17, Y0, Y1)
	DP2(Y18, Y19, Y2, Y3)
	DP2(Y20, Y21, Y4, Y5)
	DP2(Y22, Y23, Y6, Y7)
	ADDQ $32, R12
	ADDQ $32, R14
	ADDQ $64, DX
	DECQ AX
	JNZ  chunkp

tailp:
	// One more pass over the padded last chunk, against the tail copies.
	TESTQ R13, R13
	JZ    reducep
	UNPACK2((R12), (R14))
	DP2(0(R13), 32(R13), Y0, Y1)
	DP2(64(R13), 96(R13), Y2, Y3)
	DP2(128(R13), 160(R13), Y4, Y5)
	DP2(192(R13), 224(R13), Y6, Y7)

reducep:
	// X0 = vectors 0, 1 (rows r, r+1 each), X1 = vectors 2, 3.
	REDUCE8
	VEXTRACTI128 $1, Y0, X1
	CMPQ         CX, $1
	JEQ          oddp
	VMOVQ        X0, (DI)
	VPEXTRQ      $1, X0, TILELD(DI)
	VMOVQ        X1, 2*TILELD(DI)
	VPEXTRQ      $1, X1, 3*TILELD(DI)
	ADDQ         $8, DI
	LEAQ         (SI)(BX*2), SI
	SUBQ         $2, CX
	JNZ          pair
	JMP          donep

oddp:
	VMOVD   X0, (DI)
	VPEXTRD $2, X0, TILELD(DI)
	VMOVD   X1, 2*TILELD(DI)
	VPEXTRD $2, X1, 3*TILELD(DI)

donep:
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

// func hasVNNI() bool
TEXT ·hasVNNI(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x08000000, CX     // OSXSAVE
	JZ   vdone
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX           // OS saves XMM, YMM, opmask, ZMM_Hi256 and Hi16_ZMM state
	CMPL AX, $0xe6
	JNE  vdone
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $31, BX             // AVX512VL
	SHRL $11, CX             // AVX512_VNNI
	ANDL CX, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)

vdone:
	RET
