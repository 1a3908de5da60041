// Package projection implements the sparse random projection used to
// build the ENMC screening module (paper Eq. 3). Following Achlioptas
// ("Database-friendly random projections"), entries of the k×d
// projection matrix P are drawn from sqrt(3/k)·{+1, 0, -1} with
// probabilities {1/6, 2/3, 1/6}. Because every entry is ternary,
// projecting a vector needs only adds and subtracts, which is why the
// Screener can afford it.
//
// In memory P is kept as what the adds and subtracts need: per row,
// the list of its non-zero columns in ascending order, each a uint32
// carrying the entry's sign in bit 31. The hardware image the cost
// model charges for (Bytes, and through it the screener's
// WeightBytes) is the paper's 2 bits per entry — its footprint is
// <0.1% of the classifier — not the size of these lists.
package projection

import (
	"fmt"
	"math"
	"sort"

	"enmc/internal/xrand"
)

const (
	// signBit marks a -1 entry in a column-index list; it is also the
	// float32 sign bit, so XOR-ing it into h[j]'s bits negates h[j].
	signBit = 1 << 31
	colMask = signBit - 1
)

// Sparse is a k×d ternary projection matrix with scale sqrt(3/k).
type Sparse struct {
	K, D  int
	Scale float32
	// idx[off[i]:off[i+1]] lists row i's non-zero columns, ascending,
	// with signBit set on the -1 entries.
	idx []uint32
	off []int
}

// New draws a fresh k×d sparse projection with the Achlioptas
// distribution, deterministically from seed. Entries are drawn row by
// row, one r.Intn(6) per entry (0 → +1, 1 → -1, else 0); artifacts
// store only the seed, so this order is part of the file format.
func New(k, d int, seed uint64) *Sparse {
	if k <= 0 || d <= 0 || uint64(d) > colMask+1 {
		panic(fmt.Sprintf("projection: invalid shape %dx%d", k, d))
	}
	p := &Sparse{
		K:     k,
		D:     d,
		Scale: float32(math.Sqrt(3 / float64(k))),
		idx:   make([]uint32, 0, k*d/3+k*d/32+8), // a third, plus ≫ the draw's spread
		off:   make([]int, k+1),
	}
	r := xrand.New(seed)
	for i := 0; i < k; i++ {
		for j := 0; j < d; j++ {
			switch r.Intn(6) {
			case 0:
				p.idx = append(p.idx, uint32(j))
			case 1:
				p.idx = append(p.idx, uint32(j)|signBit)
			}
		}
		p.off[i+1] = len(p.idx)
	}
	return p
}

// At returns entry (row, col) as -1, 0 or +1 (unscaled).
func (p *Sparse) At(row, col int) int {
	list := p.idx[p.off[row]:p.off[row+1]]
	n := sort.Search(len(list), func(n int) bool { return int(list[n]&colMask) >= col })
	switch {
	case n == len(list) || int(list[n]&colMask) != col:
		return 0
	case list[n]&signBit != 0:
		return -1
	default:
		return 1
	}
}

// Bytes reports the footprint of P in the modelled hardware: 2 bits
// per entry, (k·d+3)/4 bytes. The in-memory index lists are larger;
// they are this host's layout, not the Screener's.
func (p *Sparse) Bytes() int64 { return (int64(p.K)*int64(p.D) + 3) / 4 }

// Apply computes dst = P·h, where dst has length K and h length D,
// with only additions, subtractions and one final scale per output,
// matching the hardware cost model. It allocates nothing.
//
// Each row is one loop over its column-index list that adds h[j] with
// its sign flipped by XOR for a -1 entry. acc + (-x) equals acc - x
// bit for bit for every x but a NaN, whose sign the flip would change
// in the result, so an h holding a NaN takes a branchy add/subtract
// loop over the same lists instead. Either way the additions run in
// ascending j, the order of the trit-at-a-time definition, so dst is
// bit-identical to it.
func (p *Sparse) Apply(dst, h []float32) {
	if len(h) != p.D || len(dst) != p.K {
		panic(fmt.Sprintf("projection: Apply shapes %dx%d · %d -> %d", p.K, p.D, len(h), len(dst)))
	}
	if hasNaN(h) {
		p.applySubtracting(dst, h)
		return
	}
	for i := range dst {
		var acc float32
		for _, e := range p.idx[p.off[i]:p.off[i+1]] {
			acc += math.Float32frombits(math.Float32bits(h[e&colMask]) ^ e&signBit)
		}
		dst[i] = acc * p.Scale
	}
}

// applySubtracting is Apply for an h that holds a NaN: a -1 entry
// subtracts, which passes a NaN operand's sign through unchanged.
func (p *Sparse) applySubtracting(dst, h []float32) {
	for i := range dst {
		var acc float32
		for _, e := range p.idx[p.off[i]:p.off[i+1]] {
			if e&signBit != 0 {
				acc -= h[e&colMask]
			} else {
				acc += h[e]
			}
		}
		dst[i] = acc * p.Scale
	}
}

func hasNaN(h []float32) bool {
	for _, v := range h {
		if v != v {
			return true
		}
	}
	return false
}

// ApplyNew is Apply with a freshly allocated destination.
func (p *Sparse) ApplyNew(h []float32) []float32 {
	dst := make([]float32, p.K)
	p.Apply(dst, h)
	return dst
}

// NonZeroFraction reports the fraction of non-zero entries; the
// Achlioptas distribution targets 1/3.
func (p *Sparse) NonZeroFraction() float64 {
	return float64(len(p.idx)) / (float64(p.K) * float64(p.D))
}
