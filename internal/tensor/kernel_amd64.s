//go:build amd64 && !purego

#include "textflag.h"

// The exact-gather kernel: four rows against one vector, one 128-bit
// accumulator per row (X0..X3). Lane j of an accumulator sums the
// columns ≡ j (mod 4) in ascending order with a separately rounded
// multiply (MULPS) and add (ADDPS) — never an FMA — which is the
// summation tensor.Dot performs, so Go can fold the lanes and get
// Dot's bits. The row operand is the destination of the multiply and
// the accumulator the destination of the add, as in the scalar loop.
//
// R8..R11 = the four rows, R12, R13, SI, DI = the next group's rows
// (prefetch only), DX = x, BX = byte offset into all of them.

// QUAD multiplies columns [off/4, off/4+4) of the four rows by the
// same columns of x and adds them into the row accumulators.
#define QUAD(off) \
	MOVUPS off(DX)(BX*1), X4   \
	MOVUPS off(R8)(BX*1), X5   \
	MOVUPS off(R9)(BX*1), X6   \
	MOVUPS off(R10)(BX*1), X7  \
	MOVUPS off(R11)(BX*1), X8  \
	MULPS  X4, X5              \
	MULPS  X4, X6              \
	MULPS  X4, X7              \
	MULPS  X4, X8              \
	ADDPS  X5, X0              \
	ADDPS  X6, X1              \
	ADDPS  X7, X2              \
	ADDPS  X8, X3

#define PREFETCH4 \
	PREFETCHT0 (R12)(BX*1)  \
	PREFETCHT0 (R13)(BX*1)  \
	PREFETCHT0 (SI)(BX*1)   \
	PREFETCHT0 (DI)(BX*1)

// func dotRows4(cur, next *[4]*float32, x *float32, quads int, acc *[16]float32)
TEXT ·dotRows4(SB), NOSPLIT, $0-40
	MOVQ  cur+0(FP), AX
	MOVQ  0(AX), R8
	MOVQ  8(AX), R9
	MOVQ  16(AX), R10
	MOVQ  24(AX), R11
	MOVQ  next+8(FP), AX
	MOVQ  0(AX), R12
	MOVQ  8(AX), R13
	MOVQ  16(AX), SI
	MOVQ  24(AX), DI
	MOVQ  x+16(FP), DX
	MOVQ  quads+24(FP), CX
	XORQ  BX, BX
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVQ  CX, AX
	SHRQ  $2, AX             // cache lines (16 columns) per row
	JZ    rest

line:
	PREFETCH4
	QUAD(0)
	QUAD(16)
	QUAD(32)
	QUAD(48)
	ADDQ $64, BX
	DECQ AX
	JNZ  line

rest:
	ANDQ $3, CX              // quads past the last whole line
	JZ   done
	PREFETCH4

quad:
	QUAD(0)
	ADDQ $16, BX
	DECQ CX
	JNZ  quad

done:
	MOVQ   acc+32(FP), AX
	MOVUPS X0, 0(AX)
	MOVUPS X1, 16(AX)
	MOVUPS X2, 32(AX)
	MOVUPS X3, 48(AX)
	RET

// The bracket sweep of TopKSetInto: one keep bit per value, set when
// !(v < tau). CMPPS predicate 5 (NLT) is exactly that comparison, true
// for a NaN v as the Go expression is. Sixteen compare results pack
// into sixteen bytes (PACKSSLW, PACKSSWB keep all-ones and zero lanes
// as they are) and PMOVMSKB reads one bit per byte, in value order, so
// each 16-bit store is the next sixteen bits of the little-endian
// uint64 words: bit j of word w is value 64·w + j.

// MASK16(off) writes the keep bits of the sixteen values at off(SI) to
// off/32(DI).
#define MASK16(off) \
	MOVUPS   off(SI), X0     \
	MOVUPS   off+16(SI), X1  \
	MOVUPS   off+32(SI), X2  \
	MOVUPS   off+48(SI), X3  \
	CMPPS    X8, X0, $5      \
	CMPPS    X8, X1, $5      \
	CMPPS    X8, X2, $5      \
	CMPPS    X8, X3, $5      \
	PACKSSLW X1, X0          \
	PACKSSLW X3, X2          \
	PACKSSWB X2, X0          \
	PMOVMSKB X0, AX          \
	MOVW     AX, off/32(DI)

// func keepMask(x *float32, words int, tau float32, mask *uint64)
TEXT ·keepMask(SB), NOSPLIT, $0-32
	MOVQ   x+0(FP), SI
	MOVQ   words+8(FP), CX
	MOVSS  tau+16(FP), X8
	SHUFPS $0, X8, X8
	MOVQ   mask+24(FP), DI
	TESTQ  CX, CX
	JZ     maskdone

maskword:
	MASK16(0)
	MASK16(64)
	MASK16(128)
	MASK16(192)
	ADDQ $256, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  maskword

maskdone:
	RET
