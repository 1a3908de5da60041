//go:build amd64 && !purego

package tensor

import "math/bits"

// dotRows4 accumulates four rows against x over their first 4·quads
// columns: acc[4r+j] is, for row cur[r], the sum over columns ≡ j
// (mod 4) in ascending order, each product rounded before it is added
// (MULPS then ADDPS) — Dot's four partial sums. While it reads column c
// of the current rows it prefetches column c of the rows in next.
// Baseline SSE only, so every amd64 CPU runs it.
//
//go:noescape
func dotRows4(cur, next *[4]*float32, x *float32, quads int, acc *[16]float32)

// matVecRows is the gather behind MatVec and MatVecRows (rows == nil:
// the matrix's own rows in order). Whole groups of four rows go to
// dotRows4; the partial sums it returns are folded, and the last
// Cols%4 columns added, exactly as Dot does. The ascending candidate
// list is known up front, so each call also names the four rows after
// its own — clamped to the last row of the list, so the look-ahead
// never leaves the list, let alone Data — and the cold miss at every
// row start overlaps the arithmetic of the group before it.
func (m *Matrix) matVecRows(dst []float32, rows []int, x []float32) {
	n, quads := len(dst), m.Cols/4
	whole := n &^ 3
	if quads == 0 {
		whole = 0
	}
	var (
		cur, next [4]*float32
		acc       [16]float32
	)
	for j := 0; j < whole; j += 4 {
		for t := range cur {
			cur[t] = &m.listRow(rows, j+t)[0]
			next[t] = &m.listRow(rows, min(j+4+t, n-1))[0]
		}
		dotRows4(&cur, &next, &x[0], quads, &acc)
		for t := 0; t < 4; t++ {
			s := acc[4*t] + acc[4*t+1] + acc[4*t+2] + acc[4*t+3]
			if c := 4 * quads; c < m.Cols {
				for row := m.listRow(rows, j+t); c < m.Cols; c++ {
					s += float32(row[c] * x[c])
				}
			}
			dst[j+t] = s
		}
	}
	m.dotRows(dst, rows, x, whole)
}

// keepMask writes the keep bits of the first 64·words values of x to
// mask[0:words]: bit j of mask[w] is set when !(x[64w+j] < tau), NaNs
// included — kept's comparison. Baseline SSE only.
//
//go:noescape
func keepMask(x *float32, words int, tau float32, mask *uint64)

// sweep is sweepKept's contract on keepMask: the keep bits of x go
// into b.mask (the last partial word from Go), a popcount of them
// checks the limit, and the survivors' indices are read off the words
// in ascending order. Each word's first four are stored without a
// branch — a store past the word's survivors lands in a spare slot or
// under the next word's — and the cursor moves by the word's popcount;
// only a word with more than four goes on one by one.
func (b *TopKBuf) sweep(x []float32, tau float32, limit int) ([]int, bool) {
	whole, words := len(x)/64, (len(x)+63)/64
	if cap(b.mask) < words {
		b.mask = make([]uint64, words)
	}
	mask := b.mask[:words]
	if whole > 0 {
		keepMask(&x[0], whole, tau, &mask[0])
	}
	if whole < words {
		var w uint64
		for j, v := range x[64*whole:] {
			w |= uint64(kept(v, tau)) << j
		}
		mask[whole] = w
	}
	c := 0
	for _, w := range mask {
		c += bits.OnesCount64(w)
	}
	if c > limit {
		return nil, false
	}
	if cap(b.at) < c+4 {
		b.at = make([]int, c+4)
	}
	at, p := b.at[:c+4], 0
	for i, w := range mask {
		n, base := bits.OnesCount64(w), 64*i
		a := (*[4]int)(at[p:])
		a[0] = base + bits.TrailingZeros64(w)
		w &= w - 1
		a[1] = base + bits.TrailingZeros64(w)
		w &= w - 1
		a[2] = base + bits.TrailingZeros64(w)
		w &= w - 1
		a[3] = base + bits.TrailingZeros64(w)
		w &= w - 1
		p += n
		for q := p - n + 4; q < p; q++ {
			at[q] = base + bits.TrailingZeros64(w)
			w &= w - 1
		}
	}
	return at[:c], true
}
