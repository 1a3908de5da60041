package tensor

import "math"

// TopK returns the indices of the k largest values in x, in
// descending value order (ties break toward lower index). It runs in
// O(n log k) with a bounded min-heap, mirroring the top-m candidate
// search the Screener's comparator array performs in hardware.
func TopK(x []float32, k int) []int {
	var buf TopKBuf
	sel := TopKInto(x, k, &buf)
	if sel == nil {
		return nil
	}
	out := make([]int, len(sel))
	copy(out, sel)
	return out
}

// TopKBuf is reusable scratch for the allocation-free top-k variants:
// it owns the bounded heap, the set select's undecided keys and the
// output index slice, so steady-state selection allocates nothing. The
// zero value is ready to use. Slices returned by TopKInto/TopKSetInto
// alias the buffer and stay valid only until the next call on the same
// buffer.
type TopKBuf struct {
	items []heapItem
	out   []int
	// The set select's undecided values — the bracket's survivors, or
	// the full select's threshold bucket — as keys and indices into x,
	// in index order.
	keys []uint32
	at   []int
	// The bracket sweep's keep bits, one per value of x, least
	// significant bit first (amd64 only; see sweep).
	mask []uint64

	// Missed reports that the last TopKSetInto bracketed its input
	// (see there) and the bracket failed, so the full radix select ran
	// after the bracket's sweep. The output is the same either way.
	Missed bool
	// MaybeNaN is false when the last TopKSetInto that selected at
	// least one index proved x free of NaNs; it is set whenever x holds
	// a NaN, and also when it holds ±Inf (the proof is a by-product of
	// the select's first histogram, whose end buckets hold both).
	MaybeNaN bool
}

// TopKInto is TopK with buffer-backed storage: the returned slice is
// owned by buf and is overwritten by the next selection through it.
func TopKInto(x []float32, k int, buf *TopKBuf) []int {
	if k <= 0 || len(x) == 0 {
		return nil
	}
	if k > len(x) {
		k = len(x)
	}
	items := buf.items[:0]
	for i, v := range x {
		it := heapItem{idx: i, val: v}
		if len(items) < k {
			items = append(items, it)
			siftUp(items, len(items)-1)
			continue
		}
		if less(items[0], it) {
			items[0] = it
			siftDown(items, 0)
		}
	}
	buf.items = items
	return buf.extract()
}

// Geometry of TopKSetInto's sampled bracket.
const (
	bracketMinN   = 1 << 16 // inputs at least this long are bracketed
	bracketSample = 4096    // strided sample the cut is read from
	// The bracket is tried only when its cut is expected to keep at
	// most 1/bracketMaxShare of x, and abandoned once it has kept twice
	// that: past it, the sweep costs more than it saves.
	bracketMaxShare = 8
)

// TopKSetInto returns the indices TopK selects — the k largest values,
// ties toward lower index — as a set in ascending index order, which
// is what a consumer that only gathers the winners wants (the exact
// recompute walks classifier rows in index order). -0 and +0 tie, as
// they do for TopK; NaNs, which TopK's comparator cannot order, sort by
// bit pattern beyond ±Inf.
//
// An input of at least 2¹⁶ values is first bracketed: a cut τ is read
// off a strided sample of 4096 values at a rank widened to keep about
// 1.6·k values, one sweep keeps every value that is !(v < τ) — NaNs
// included — and the k-th largest of those survivors alone is resolved
// by the digit descent the full select also ends in, after which one
// pass emits the winners in index order. Every value at or above τ survives, so
// whenever the survivors' k-th largest is still ≥ τ the winners are
// all among them, in the same index order, with the same ties: the
// answer is the one the full select gives. When the bracket keeps
// fewer than k such values (a sample that misjudged the input, as a
// periodic one can) or far more than planned, the full radix select
// runs instead and buf.Missed says so.
func TopKSetInto(x []float32, k int, buf *TopKBuf) []int {
	buf.Missed, buf.MaybeNaN = false, false
	if k <= 0 || len(x) == 0 {
		return nil
	}
	k = min(k, len(x))
	if len(x) >= bracketMinN {
		if out, ok := buf.bracketed(x, k); ok {
			return out
		}
	}
	return buf.radixSelect(x, k)
}

// bracketed is TopKSetInto's sampled front end; it reports false,
// having selected nothing, when the full select must run instead.
func (b *TopKBuf) bracketed(x []float32, k int) ([]int, bool) {
	n := len(x)
	// mu sample values are expected above the k-th largest. The cut
	// sits 60 % further down the sample (≈ 1.6·k survivors), and at
	// least four standard deviations plus eight further, which keeps a
	// short bracket improbable when mu is small.
	mu := float64(k) * bracketSample / float64(n)
	r := int(mu + max(0.6*mu, 4*math.Sqrt(mu)+8))
	if r >= bracketSample/bracketMaxShare {
		return nil, false
	}
	var sample [bracketSample]uint32
	stride := n / bracketSample
	for i := range sample {
		sample[i] = orderKey(x[i*stride])
	}
	cut, _, _ := kthLargestKey(sample[:], r)
	tau := keyValue(cut)
	if tau != tau {
		return nil, false // a NaN cut keeps everything
	}
	at, ok := b.sweep(x, tau, 2*n/bracketMaxShare)
	if !ok {
		b.Missed = true
		return nil, false
	}
	keys := b.keys[:0]
	for _, i := range at {
		keys = append(keys, orderKey(x[i]))
	}
	b.keys, b.at = keys, at
	if len(keys) < k {
		b.Missed = true
		return nil, false
	}
	// Negative NaNs survive the sweep but key below every number, so
	// the bracket held only if the k-th winner keys at or above the cut.
	kth, ties, maybeNaN := kthLargestKey(keys, k-1)
	if kth < cut {
		b.Missed = true
		return nil, false
	}
	// Every NaN of x survived, so the survivors' histogram speaks for x.
	b.MaybeNaN = maybeNaN
	return compactWinners(at, keys, kth, ties), true
}

// sweepKept is the bracket's sweep in Go: it returns, in ascending
// order and in b.at, the index of every value of x that is !(v < tau),
// or false once there are more than limit of them. A block's worth of
// slack past the limit lets it check for overflow once per block.
// It is the sweep where the assembly is not built and the reference
// the amd64 sweep is tested against.
func (b *TopKBuf) sweepKept(x []float32, tau float32, limit int) ([]int, bool) {
	const block = 4096
	if cap(b.at) < limit+block {
		b.at = make([]int, limit+block)
	}
	at := b.at[:limit+block]
	c := 0
	for lo := 0; lo < len(x); lo += block {
		c += keptInto(at[c:], x[lo:min(lo+block, len(x))], lo, tau)
		if c > limit {
			return nil, false
		}
	}
	return at[:c], true
}

// keptInto is the bracket's sweep over one block: it writes to at
// (len(at) ≥ len(x)) the index, offset by base, of every value that is
// !(v < tau) and returns how many. Every index is stored and the count
// advances only past a kept one, so the loop does not branch on the
// data; out of line, it keeps its counters in registers.
//
//go:noinline
func keptInto(at []int, x []float32, base int, tau float32) int {
	at = at[:len(x)]
	c := 0
	for i, v := range x {
		at[c] = base + i
		c += kept(v, tau)
	}
	return c
}

// kept is 1 when !(v < tau), else 0, computed without a branch.
func kept(v, tau float32) int {
	k := 0
	if !(v < tau) {
		k = 1
	}
	return k
}

// radixSelect is the full select: it radix-selects over order-
// preserving integer keys in two sweeps of x. A histogram of the
// leading 11 key bits finds the bucket holding the k-th largest key;
// the second sweep emits every index above that bucket and keeps the
// bucket itself — the only keys still undecided — aside, where the
// remaining bits are resolved and whose winners are merged back in
// index order. O(n) with no heap and no sort, where TopK's heap costs
// O(n log k) plus an O(k log k) extraction. It needs 1 ≤ k ≤ len(x)
// and sets b.MaybeNaN from the histogram.
func (b *TopKBuf) radixSelect(x []float32, k int) []int {
	const lowBits = 21
	var hist [1 << 11]uint32
	for _, v := range x {
		hist[orderKey(v)>>lowBits]++
	}
	b.MaybeNaN = nonFinite(&hist)
	// need counts the winners still to be found at or below bucket top.
	need := uint32(k)
	top := uint32(len(hist) - 1)
	for ; need > hist[top]; top-- {
		need -= hist[top]
	}
	if cap(b.out) < k {
		b.out = make([]int, 0, k)
	}
	out, at := b.out[:0], b.at[:0]
	for i, v := range x {
		if d := orderKey(v) >> lowBits; d > top {
			out = append(out, i)
		} else if d == top {
			at = append(at, i)
		}
	}
	keys := b.keys[:0]
	for _, i := range at {
		keys = append(keys, orderKey(x[i]))
	}
	b.keys, b.at = keys, at
	kth, ties, _ := kthLargestKey(keys, int(need)-1)
	won := compactWinners(at, keys, kth, ties)
	// Merge the two ascending runs from the back: out[:above] and the
	// bucket's winners fill out[:k] exactly.
	i, j := len(out)-1, len(won)-1
	out = out[:len(out)+len(won)]
	for p := len(out) - 1; j >= 0; p-- {
		if i >= 0 && out[i] > won[j] {
			out[p] = out[i]
			i--
		} else {
			out[p] = won[j]
			j--
		}
	}
	b.out = out
	return out
}

// compactWinners keeps, in place and in order, the entries of at whose
// keys are winners — above kth, or equal to it while ties last — and
// returns them. The store is unconditional and the count advances only
// past a winner, so the pass does not branch on the keys' order.
func compactWinners(at []int, keys []uint32, kth, ties uint32) []int {
	w := 0
	for p, key := range keys {
		take := key > kth
		if key == kth && ties > 0 {
			take = true
			ties--
		}
		at[w] = at[p]
		if take {
			w++
		}
	}
	return at[:w]
}

// kthLargestKey returns the r-th largest (0-based) of keys, 0 ≤ r <
// len(keys), by a descent over their 11/11/10-bit digits that counts
// in place instead of moving keys; ties is how many of the r+1 largest
// keys equal it, and maybeNaN is nonFinite of the leading digit's
// histogram.
func kthLargestKey(keys []uint32, r int) (kth, ties uint32, maybeNaN bool) {
	need := uint32(r + 1)
	var mask uint32
	for pass, d := range [3]struct{ shift, width uint32 }{{21, 11}, {10, 11}, {0, 10}} {
		var hist [1 << 11]uint32
		digits := uint32(1)<<d.width - 1
		for _, key := range keys {
			inc := uint32(0)
			if key&mask == kth {
				inc = 1
			}
			hist[key>>d.shift&digits] += inc
		}
		if pass == 0 {
			maybeNaN = nonFinite(&hist)
		}
		bkt := digits
		for ; need > hist[bkt]; bkt-- {
			need -= hist[bkt]
		}
		kth |= bkt << d.shift
		mask |= digits << d.shift
	}
	return kth, need, maybeNaN
}

// nonFinite reports whether a histogram of leading 11-bit key digits
// counted a NaN or an infinity: buckets 0–3 hold exactly the negative
// NaNs and -Inf, 2044–2047 exactly +Inf and the positive NaNs.
func nonFinite(hist *[1 << 11]uint32) bool {
	return hist[0]|hist[1]|hist[2]|hist[3]|hist[2044]|hist[2045]|hist[2046]|hist[2047] != 0
}

// orderKey maps v to a uint32 whose unsigned order is v's float order
// (sign-magnitude to biased), with -0 folded onto +0.
func orderKey(v float32) uint32 {
	b := math.Float32bits(v)
	if b<<1 == 0 {
		return 1 << 31
	}
	return b ^ (uint32(int32(b)>>31) | 1<<31)
}

// keyValue inverts orderKey; the folded zero comes back as +0.
func keyValue(key uint32) float32 {
	if key>>31 != 0 {
		return math.Float32frombits(key ^ 1<<31)
	}
	return math.Float32frombits(^key)
}

// extract heap-sorts the retained items (best first) and writes their
// indices into the buffer's output slice.
func (b *TopKBuf) extract() []int {
	n := len(b.items)
	if n == 0 {
		return nil
	}
	for end := n - 1; end > 0; end-- {
		b.items[0], b.items[end] = b.items[end], b.items[0]
		siftDown(b.items[:end], 0)
	}
	if cap(b.out) < n {
		b.out = make([]int, n)
	}
	b.out = b.out[:n]
	for i, it := range b.items {
		b.out[i] = it.idx
	}
	return b.out
}

// AboveThresholdInto writes, in ascending index order, all indices i
// with x[i] >= threshold into dst[:0] — the Screener's threshold
// filter. The grown slice is returned so callers can keep it as
// reusable scratch. nan reports whether x holds a NaN, which no
// threshold keeps.
func AboveThresholdInto(dst []int, x []float32, threshold float32) (idx []int, nan bool) {
	dst = dst[:0]
	for i, v := range x {
		if v >= threshold {
			dst = append(dst, i)
		} else if v != v {
			nan = true
		}
	}
	return dst, nan
}

type heapItem struct {
	idx int
	val float32
}

// less orders items so that the heap root is the *worst* retained
// candidate: smaller value first, and on equal values the larger
// index first so that ties break toward lower indices overall.
func less(a, b heapItem) bool {
	if a.val != b.val {
		return a.val < b.val
	}
	return a.idx > b.idx
}

// siftUp/siftDown are the hand-rolled heap primitives: the previous
// container/heap implementation boxed every Push/Pop through an
// interface{}, which cost two allocations per retained candidate —
// tens of thousands per query at serving-scale m.
func siftUp(items []heapItem, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(items[i], items[parent]) {
			return
		}
		items[i], items[parent] = items[parent], items[i]
		i = parent
	}
}

func siftDown(items []heapItem, i int) {
	n := len(items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && less(items[right], items[left]) {
			least = right
		}
		if !less(items[least], items[i]) {
			return
		}
		items[i], items[least] = items[least], items[i]
		i = least
	}
}
