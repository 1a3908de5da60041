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
// it owns the bounded heap, the set select's side buffer and the
// output index slice, so steady-state selection allocates nothing. The
// zero value is ready to use. Slices returned by TopKInto/TopKSetInto
// alias the buffer and stay valid only until the next call on the same
// buffer.
type TopKBuf struct {
	items []heapItem
	side  []keyed
	out   []int
}

// keyed is one element of the set select's threshold bucket.
type keyed struct {
	idx int
	key uint32
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

// TopKSetInto returns the indices TopK selects — the k largest values,
// ties toward lower index — as a set in ascending index order, which
// is what a consumer that only gathers the winners wants (the exact
// recompute walks classifier rows in index order). It radix-selects
// over order-preserving integer keys in two sweeps of x: a histogram
// of the leading 11 key bits finds the bucket holding the k-th largest
// key; the second sweep emits every index above that bucket and copies
// the bucket itself — the only keys still undecided — into a side
// buffer, on which the remaining 21 bits are resolved and whose
// winners are merged back in index order. O(n) with no heap and no
// sort, where TopK's heap costs O(n log k) plus an O(k log k)
// extraction. -0 and +0 tie, as they do for TopK; NaNs, which TopK's
// comparator cannot order, sort by bit pattern beyond ±Inf.
func TopKSetInto(x []float32, k int, buf *TopKBuf) []int {
	if k <= 0 || len(x) == 0 {
		return nil
	}
	if k > len(x) {
		k = len(x)
	}
	const lowBits = 21
	var hist [1 << 11]uint32
	for _, v := range x {
		hist[orderKey(v)>>lowBits]++
	}
	// need counts the winners still to be found at or below bucket top.
	need := uint32(k)
	top := uint32(len(hist) - 1)
	for ; need > hist[top]; top-- {
		need -= hist[top]
	}
	if cap(buf.out) < k {
		buf.out = make([]int, 0, k)
	}
	out, side := buf.out[:0], buf.side[:0]
	for i, v := range x {
		key := orderKey(v)
		if d := key >> lowBits; d > top {
			out = append(out, i)
		} else if d == top {
			side = append(side, keyed{i, key})
		}
	}
	buf.side = side
	// After each pass, kth&mask is the next digits of the k-th largest
	// key and need counts how many winners share them.
	kth, mask := top<<lowBits, uint32(1<<32-1<<lowBits)
	for _, d := range [2]struct{ shift, width uint32 }{{10, 11}, {0, 10}} {
		hist = [1 << 11]uint32{}
		digits := uint32(1)<<d.width - 1
		for _, e := range side {
			if e.key&mask == kth {
				hist[e.key>>d.shift&digits]++
			}
		}
		b := digits
		for ; need > hist[b]; b-- {
			need -= hist[b]
		}
		kth |= b << d.shift
		mask |= digits << d.shift
	}
	// Keep the bucket's winners — above the k-th key, plus its
	// lowest-indexed ties — then merge the two ascending runs from the
	// back: out[:above] and the winners fill out[:k] exactly.
	won := side[:0]
	for _, e := range side {
		if e.key > kth {
			won = append(won, e)
		} else if e.key == kth && need > 0 {
			need--
			won = append(won, e)
		}
	}
	i, j := len(out)-1, len(won)-1
	out = out[:len(out)+len(won)]
	for p := len(out) - 1; j >= 0; p-- {
		if i >= 0 && out[i] > won[j].idx {
			out[p] = out[i]
			i--
		} else {
			out[p] = won[j].idx
			j--
		}
	}
	buf.out = out
	return out
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

// AboveThreshold returns, in ascending index order, all indices i
// with x[i] >= threshold. This models the Screener's threshold
// filter.
func AboveThreshold(x []float32, threshold float32) []int {
	var out []int
	for i, v := range x {
		if v >= threshold {
			out = append(out, i)
		}
	}
	return out
}

// AboveThresholdInto is AboveThreshold appending into dst[:0]; the
// grown slice is returned so callers can keep it as reusable scratch.
func AboveThresholdInto(dst []int, x []float32, threshold float32) []int {
	dst = dst[:0]
	for i, v := range x {
		if v >= threshold {
			dst = append(dst, i)
		}
	}
	return dst
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
