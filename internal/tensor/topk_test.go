package tensor

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"enmc/internal/xrand"
)

// refTopK is a straight O(n·k) selection-by-scan reference with the
// documented ordering contract (descending value, ties toward lower
// index) — the oracle the heap-based kernels must match exactly.
func refTopK(x []float32, lo, hi, k int) []int {
	if k <= 0 || hi <= lo {
		return nil
	}
	if k > hi-lo {
		k = hi - lo
	}
	taken := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		best := -1
		for i := lo; i < hi; i++ {
			if taken[i] {
				continue
			}
			if best < 0 || x[i] > x[best] || (x[i] == x[best] && i < best) {
				best = i
			}
		}
		taken[best] = true
		out = append(out, best)
	}
	return out
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// dupVec draws values from a small alphabet so ties are common — the
// ordering contract only bites when values collide.
func dupVec(r *xrand.RNG, n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(r.Intn(7)) - 3
	}
	return x
}

func TestTopKIntoMatchesReference(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(300)
		k := 1 + r.Intn(n+5) // occasionally k > n
		x := dupVec(r, n)
		var buf TopKBuf
		return eqInts(TopKInto(x, k, &buf), refTopK(x, 0, n, k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTopKHeadIsArgMax is the property server.Local.ClassifyBatch
// leans on to skip its argmax sweep: for every k ≥ 1 the head of the
// ranking is ArgMax(x) — on ties, ±Inf and ±0 as on random finite
// values. NaN separates the two (neither comparator orders it), but
// never silently: whenever they disagree, a NaN is among the k ranked
// values, which is the condition the caller falls back on.
func TestTopKHeadIsArgMax(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	alphabet := []float32{-inf, -2, negZero, 0, 1, 1, inf}
	f := func(seed uint64, withNaN bool) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(200)
		x := make([]float32, n)
		for i := range x {
			switch r.Intn(3) {
			case 0:
				x[i] = alphabet[r.Intn(len(alphabet))]
			case 1:
				x[i] = float32(r.NormFloat64())
			default:
				x[i] = float32(r.Intn(5)) // ties
			}
			if withNaN && r.Intn(10) == 0 {
				x[i] = nan
			}
		}
		var buf TopKBuf
		for _, k := range []int{1, 2, 1 + r.Intn(n), n, n + 3} {
			idx := TopKInto(x, k, &buf)
			sawNaN := false
			for _, c := range idx {
				sawNaN = sawNaN || x[c] != x[c]
			}
			if idx[0] != ArgMax(x) && !sawNaN {
				t.Logf("x=%v k=%d: head %d, argmax %d", x, k, idx[0], ArgMax(x))
				return false
			}
			if !withNaN && sawNaN {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKBufReuseAcrossCalls(t *testing.T) {
	r := xrand.New(9)
	var buf TopKBuf
	// Shrinking and growing k through the same buffer must not leak
	// state between selections.
	for _, k := range []int{5, 50, 1, 17, 50, 3} {
		x := dupVec(r, 120)
		if !eqInts(TopKInto(x, k, &buf), refTopK(x, 0, len(x), k)) {
			t.Fatalf("buffer reuse broke selection at k=%d", k)
		}
	}
}

// TestTopKSetIntoIsSortedTopK is the set-select contract: the same
// indices TopK ranks, in ascending index order — under heavy ties,
// signed zeros, ±Inf, values spread over many exponents (so every
// radix pass has work to do), values packed into one first-pass bucket
// (so the whole input goes through the side buffer), k ≥ n and k = 0.
func TestTopKSetIntoIsSortedTopK(t *testing.T) {
	inf := float32(math.Inf(1))
	negZero := math.Float32frombits(1 << 31)
	var buf TopKBuf
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(400)
		k := r.Intn(n + 5) // includes 0 and k > n
		x := dupVec(r, n)
		switch r.Intn(4) {
		case 3:
			// One leading-11-bit bucket: [1, 1.25) shares sign, exponent
			// and the top two mantissa bits.
			for i := range x {
				x[i] = 1 + float32(r.Intn(1<<12))/(1<<14)
			}
		case 0:
			for i := range x {
				x[i] = r.NormFloat32() * float32(math.Exp(20*r.Float64()-10))
			}
		case 1:
			special := []float32{inf, -inf, 0, negZero, 1, -1}
			for i := range x {
				if r.Intn(3) == 0 {
					x[i] = special[r.Intn(len(special))]
				}
			}
		}
		want := refTopK(x, 0, n, k)
		sort.Ints(want)
		return eqInts(TopKSetInto(x, k, &buf), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	if got := TopKSetInto(nil, 3, &buf); got != nil {
		t.Fatalf("TopKSetInto(nil) = %v", got)
	}
}

func TestAboveThresholdIntoMatchesAndReuses(t *testing.T) {
	x := []float32{1, 5, 2, 5, -1}
	var dst []int
	dst = AboveThresholdInto(dst, x, 5)
	if !eqInts(dst, []int{1, 3}) {
		t.Fatalf("AboveThresholdInto = %v", dst)
	}
	// Reuse with a lower threshold: previous contents must not leak.
	dst = AboveThresholdInto(dst, x, 1)
	if !eqInts(dst, []int{0, 1, 2, 3}) {
		t.Fatalf("AboveThresholdInto reuse = %v", dst)
	}
	if got := AboveThresholdInto(dst, x, 100); len(got) != 0 {
		t.Fatalf("AboveThresholdInto empty = %v", got)
	}
}

func TestTopKZeroAllocSteadyState(t *testing.T) {
	r := xrand.New(11)
	x := dupVec(r, 4096)
	var buf TopKBuf
	TopKInto(x, 64, &buf) // warm the buffer
	allocs := testing.AllocsPerRun(20, func() {
		TopKInto(x, 64, &buf)
	})
	if allocs != 0 {
		t.Fatalf("TopKInto steady state allocates %v/op", allocs)
	}
	allocs = testing.AllocsPerRun(20, func() {
		TopKSetInto(x, 64, &buf)
	})
	if allocs != 0 {
		t.Fatalf("TopKSetInto steady state allocates %v/op", allocs)
	}
}
