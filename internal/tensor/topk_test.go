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
	dst, _ = AboveThresholdInto(dst, x, 5)
	if !eqInts(dst, []int{1, 3}) {
		t.Fatalf("AboveThresholdInto = %v", dst)
	}
	// Reuse with a lower threshold: previous contents must not leak.
	dst, _ = AboveThresholdInto(dst, x, 1)
	if !eqInts(dst, []int{0, 1, 2, 3}) {
		t.Fatalf("AboveThresholdInto reuse = %v", dst)
	}
	if got, _ := AboveThresholdInto(dst, x, 100); len(got) != 0 {
		t.Fatalf("AboveThresholdInto empty = %v", got)
	}
	if got, _ := AboveThresholdInto(nil, nil, 0); got != nil {
		t.Fatalf("AboveThresholdInto(nil, nil) = %v", got)
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
	// The bracketed path, long enough to take it, keeps its pool.
	big := make([]float32, 1<<17)
	for i := range big {
		big[i] = r.NormFloat32()
	}
	TopKSetInto(big, 2000, &buf)
	allocs = testing.AllocsPerRun(20, func() {
		TopKSetInto(big, 2000, &buf)
	})
	if allocs != 0 {
		t.Fatalf("bracketed TopKSetInto steady state allocates %v/op", allocs)
	}
}

// bracketCase is one input of the bracketed select's conformance table.
type bracketCase struct {
	name string
	fill func(r *xrand.RNG, i, n int) float32
}

// bracketCases are the inputs TopKSetInto's sampled bracket is pinned
// on: the common case (random values, where the bracket holds), every
// special value the key order has to place, and inputs ordered so the
// strided sample reads them wrong.
func bracketCases() []bracketCase {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negNaN := math.Float32frombits(0xffc00001)
	negZero := math.Float32frombits(1 << 31)
	special := []float32{inf, -inf, nan, negNaN, 0, negZero, 1, -1}
	return []bracketCase{
		{"normal", func(r *xrand.RNG, _, _ int) float32 { return r.NormFloat32() }},
		{"all-equal", func(*xrand.RNG, int, int) float32 { return 0.5 }},
		{"signed-zeros", func(r *xrand.RNG, _, _ int) float32 { return []float32{0, negZero}[r.Intn(2)] }},
		{"specials", func(r *xrand.RNG, _, _ int) float32 {
			if r.Intn(4) == 0 {
				return special[r.Intn(len(special))]
			}
			return r.NormFloat32()
		}},
		// Negative NaNs key below every number, so the bracket still
		// holds: its own histogram must report them.
		{"negative-nans", func(r *xrand.RNG, _, _ int) float32 {
			if r.Intn(16) == 0 {
				return negNaN
			}
			return r.NormFloat32()
		}},
		{"nan-both-signs", func(r *xrand.RNG, _, _ int) float32 {
			switch r.Intn(16) {
			case 0:
				return nan
			case 1:
				return negNaN
			}
			return r.NormFloat32()
		}},
		// Ties at the k-th value with larger values on either side.
		{"ties", func(r *xrand.RNG, _, _ int) float32 { return float32(r.Intn(64)) }},
		{"ascending", func(_ *xrand.RNG, i, _ int) float32 { return float32(i) }},
		{"descending", func(_ *xrand.RNG, i, _ int) float32 { return -float32(i) }},
		// Peaks exactly where the strided sample looks: the sample sees
		// only maxima and cuts above almost everything.
		{"sawtooth-down", func(_ *xrand.RNG, i, n int) float32 { return -float32(i % (n / bracketSample)) }},
		// Troughs where it looks: the sample sees only minima and the
		// cut keeps nearly everything.
		{"sawtooth-up", func(_ *xrand.RNG, i, n int) float32 { return float32(i % (n / bracketSample)) }},
	}
}

// TestTopKSetIntoBracketTable pins the bracketed select to the full
// radix select, index for index, on every case around the size where
// bracketing starts, at k = 1, n/8−1, n and a serving-like n/50.
func TestTopKSetIntoBracketTable(t *testing.T) {
	r := xrand.New(47)
	var buf, ref TopKBuf
	for _, n := range []int{bracketMinN - 1, bracketMinN, bracketMinN + 1} {
		for _, c := range bracketCases() {
			x := make([]float32, n)
			nonFinite := false
			for i := range x {
				x[i] = c.fill(r, i, n)
				nonFinite = nonFinite || math.IsNaN(float64(x[i])) || math.IsInf(float64(x[i]), 0)
			}
			for _, k := range []int{1, n/8 - 1, n / 50, n} {
				want := ref.radixSelect(x, k)
				got := TopKSetInto(x, k, &buf)
				if !eqInts(got, want) {
					t.Fatalf("%s n=%d k=%d: bracketed select differs from the radix select", c.name, n, k)
				}
				if buf.MaybeNaN != nonFinite || ref.MaybeNaN != nonFinite {
					t.Fatalf("%s n=%d k=%d: MaybeNaN %v (radix select %v), input holds NaN or Inf: %v",
						c.name, n, k, buf.MaybeNaN, ref.MaybeNaN, nonFinite)
				}
			}
		}
	}
}

// TestTopKSetIntoBracketPaths checks the table is not vacuous: on
// random values the bracket holds on its own, while a sawtooth whose
// maxima are exactly the sampled values leaves it short of k and the
// fallback runs — with the right answer and Missed set.
func TestTopKSetIntoBracketPaths(t *testing.T) {
	const n = 1 << 20
	r := xrand.New(53)
	x := make([]float32, n)
	for i := range x {
		x[i] = r.NormFloat32()
	}
	var buf, ref TopKBuf
	k := n / 50
	if _, ok := buf.bracketed(x, k); !ok || buf.Missed {
		t.Fatalf("bracket did not hold on random values (missed=%v)", buf.Missed)
	}
	if len(buf.keys) > 2*k {
		t.Fatalf("bracket kept %d values for k=%d", len(buf.keys), k)
	}
	// Only the bracketSample sampled positions reach the maximum, so a
	// cut at it keeps bracketSample values: one fewer than k.
	for i := range x {
		x[i] = -float32(i % (n / bracketSample))
	}
	k = bracketSample + 1
	want := ref.radixSelect(x, k)
	if got := TopKSetInto(x, k, &buf); !eqInts(got, want) || !buf.Missed {
		t.Fatalf("sawtooth: missed=%v, result identical=%v", buf.Missed, eqInts(got, want))
	}
	// Negative NaNs survive the bracket's sweep but rank below every
	// number: padding a short pool with them must not pass for k values.
	for i := range x {
		x[i] = -1
		if i%(n/bracketSample) == 0 {
			x[i] = 0
		} else if i%997 == 0 {
			x[i] = math.Float32frombits(0xffc00001)
		}
	}
	want = ref.radixSelect(x, k)
	if got := TopKSetInto(x, k, &buf); !eqInts(got, want) || !buf.Missed {
		t.Fatalf("NaN-padded pool: missed=%v, result identical=%v", buf.Missed, eqInts(got, want))
	}
	if TopKSetInto(x, 1, &buf); buf.Missed {
		t.Fatal("Missed not cleared by the next call")
	}
}

// TestSweepMatchesKept holds the bracket's sweep — the SSE keep mask
// and its bit walk on amd64 — to sweepKept, the Go loop it replaces,
// index for index: lengths around the 16-value mask groups and the
// 64-value words, NaN, ±Inf and ±0 on the lane edges, cuts at zero,
// −0, ±Inf and an ordinary value, and limits exactly at and one below
// the survivor count.
func TestSweepMatchesKept(t *testing.T) {
	r := xrand.New(83)
	inf := float32(math.Inf(1))
	specials := []float32{float32(math.NaN()), math.Float32frombits(0xffc00001), inf, -inf, 0, math.Float32frombits(1 << 31)}
	var buf, ref TopKBuf
	for _, n := range []int{1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1000, 4096 + 17} {
		x := make([]float32, n)
		for i := range x {
			x[i] = r.NormFloat32()
			if laneEdge(i, n) && r.Intn(2) == 0 {
				x[i] = specials[r.Intn(len(specials))]
			}
		}
		for _, tau := range []float32{0, math.Float32frombits(1 << 31), inf, -inf, 0.5} {
			want, _ := ref.sweepKept(x, tau, n)
			for _, limit := range []int{n, len(want), len(want) - 1} {
				got, ok := buf.sweep(x, tau, limit)
				if wantOK := len(want) <= limit; ok != wantOK || ok && !eqInts(got, want) {
					t.Fatalf("n=%d tau=%v limit=%d: sweep kept %v (ok %v), want %v (ok %v)", n, tau, limit, got, ok, want, wantOK)
				}
			}
		}
	}
}

// TestTopKSetIntoServingShape pins the bracketed select to the radix
// select at the xc670k serving geometry (l = 670 091, m = 13 401) on
// normal logits, where the bracket must hold, and with NaN, ±Inf and
// −0 salted in.
func TestTopKSetIntoServingShape(t *testing.T) {
	const n, k = 670091, 13401
	r := xrand.New(89)
	x := make([]float32, n)
	for i := range x {
		x[i] = r.NormFloat32()
	}
	var buf, ref TopKBuf
	for _, salted := range []bool{false, true} {
		if salted {
			specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), math.Float32frombits(1 << 31)}
			for i := 0; i < n; i += 1 + r.Intn(997) {
				x[i] = specials[r.Intn(len(specials))]
			}
		}
		want := ref.radixSelect(x, k)
		if got := TopKSetInto(x, k, &buf); !eqInts(got, want) || buf.Missed {
			t.Fatalf("salted=%v: missed=%v, result identical=%v", salted, buf.Missed, eqInts(got, want))
		}
	}
}

// BenchmarkTopKSetInto times the set select at the xc670k serving
// shape (l = 670 091, m = 13 401 ≈ 2 %) on normal logits: the
// bracketed select against the full radix select it falls back to.
func BenchmarkTopKSetInto(b *testing.B) {
	const n, k = 670091, 13401
	r := xrand.New(59)
	x := make([]float32, n)
	for i := range x {
		x[i] = r.NormFloat32()
	}
	var buf TopKBuf
	b.Run("bracketed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			TopKSetInto(x, k, &buf)
		}
	})
	b.Run("radix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf.radixSelect(x, k)
		}
	})
}

// laneEdge reports whether value i of n sits on an edge of the keep
// mask's lanes: first or last of a sixteen-value PMOVMSKB group (so
// also of a 64-bit word), or the last value of the input.
func laneEdge(i, n int) bool { return i%16 == 0 || i%16 == 15 || i == n-1 }

// FuzzTopKSetInto drives the same comparison from raw float32 bit
// patterns (every NaN and Inf included) tiled with a fuzzed period,
// salted with random values, at lengths around the bracketing size —
// most of them off a multiple of 16, so the sweep's last mask word is
// partial — and, when edge picks one, with NaN, ±Inf or −0 dropped on
// a random share of the mask's lane edges.
func FuzzTopKSetInto(f *testing.F) {
	f.Add(uint64(1), uint16(1), uint32(1310), uint16(0), uint8(0), []byte{0, 0, 0x80, 0x3f})
	f.Add(uint64(2), uint16(0), uint32(8191), uint16(16), uint8(1), []byte{0, 0, 0xc0, 0xff, 0, 0, 0x80, 0x7f})
	f.Add(uint64(3), uint16(2), uint32(1<<16), uint16(7), uint8(2), []byte{1, 0, 0xc0, 0x7f, 0, 0, 0, 0x80, 0, 0, 0, 0})
	f.Add(uint64(4), uint16(49), uint32(1310), uint16(1), uint8(3), []byte{0, 0, 0x80, 0x3f})
	f.Add(uint64(5), uint16(4095), uint32(9), uint16(1), uint8(4), []byte{0, 0, 0x80, 0xbf})
	f.Add(uint64(6), uint16(63), uint32(700), uint16(1), uint8(5), []byte{0, 0, 0x80, 0x3f})
	negNaN := math.Float32frombits(0xffc00001)
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), math.Float32frombits(1 << 31), negNaN}
	f.Fuzz(func(t *testing.T, seed uint64, extra uint16, k uint32, salt uint16, edge uint8, data []byte) {
		words := len(data) / 4
		if words == 0 {
			return
		}
		n := bracketMinN - 1 + int(extra)%(1<<12)
		r := xrand.New(seed)
		x := make([]float32, n)
		for i := range x {
			w := i % words
			x[i] = math.Float32frombits(uint32(data[4*w]) | uint32(data[4*w+1])<<8 | uint32(data[4*w+2])<<16 | uint32(data[4*w+3])<<24)
			if salt > 0 && r.Intn(int(salt)+1) == 0 {
				x[i] = r.NormFloat32()
			}
			if e := int(edge) % (len(specials) + 1); e > 0 && laneEdge(i, n) && r.Intn(4) == 0 {
				x[i] = specials[e-1]
			}
		}
		kk := 1 + int(k)%n
		var buf, ref TopKBuf
		want := ref.radixSelect(x, kk)
		if got := TopKSetInto(x, kk, &buf); !eqInts(got, want) {
			t.Fatalf("n=%d k=%d: bracketed select differs from the radix select", n, kk)
		}
	})
}

// TestAboveThresholdIntoReportsNaN: the threshold select says whether
// the input held a NaN, which no threshold keeps.
func TestAboveThresholdIntoReportsNaN(t *testing.T) {
	x := []float32{1, float32(math.NaN()), 5}
	if idx, nan := AboveThresholdInto(nil, x, 2); !eqInts(idx, []int{2}) || !nan {
		t.Fatalf("AboveThresholdInto = %v, nan=%v", idx, nan)
	}
	if _, nan := AboveThresholdInto(nil, x[:1], 0); nan {
		t.Fatal("NaN reported for a NaN-free input")
	}
}
