package core

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"enmc/internal/quant"
	"enmc/internal/tensor"
	"enmc/internal/xrand"
)

// TestRankMixedMatchesTopKInto is the candidate ranking's contract:
// RankMixed returns exactly tensor.TopKInto(r.Mixed, k) — indices in
// order — over random shapes and precisions, under top-m (m = 0, 1,
// random, l) and threshold selection (a calibrated cut, one that keeps
// everything, one that keeps nothing), at k = 0, 1, m, m+1, l and past
// l, with hidden vectors poisoned by a NaN (every exact logit NaN) or
// an Inf (NaN screened logits outside the candidates), and with one
// class whose exact logit alone is NaN. The head of an answer free of
// NaNs must be Predict(). It also checks the test is not vacuous: most
// clean items asking for k ≤ m/4 are ranked from the candidates alone.
func TestRankMixedMatchesTopKInto(t *testing.T) {
	sc := GetScratch()
	defer sc.Release()
	var buf tensor.TopKBuf
	var calls, sweeps int64
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		l, d := 8+r.Intn(300), []int{16, 32, 64}[r.Intn(3)]
		cls, samples := testModel(t, l, d, 3)
		cfg := testConfig(l, d)
		cfg.Precision = []quant.Bits{quant.INT2, quant.INT4, quant.INT8}[r.Intn(3)]
		scr, err := ProjectedScreener(cls, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := samples[r.Intn(len(samples))]
		m := []int{0, 1, 1 + r.Intn(l), l}[r.Intn(4)]
		poison := r.Intn(7)
		switch poison {
		case 6:
			// A corrupt class, the lowest-indexed candidate of top-m:
			// its exact logit is NaN, its screened one is not.
			cls.B = slices.Clone(cls.B)
			cls.B[slices.Min(tensor.TopK(scr.Screen(h), max(m, 1)))] = float32(math.NaN())
		case 0:
			h = slices.Clone(h)
			h[r.Intn(d)] = float32(math.NaN())
		case 1:
			h = slices.Clone(h)
			h[r.Intn(d)] = float32(math.Inf(1 - 2*r.Intn(2)))
		}
		sel := TopM(m)
		if r.Intn(3) == 0 {
			z := scr.Screen(h)
			sel = Threshold(z[tensor.TopK(z, 1+r.Intn(l))[0]])
			switch r.Intn(4) {
			case 0:
				sel = Threshold(float32(math.Inf(-1)))
			case 1:
				sel = Threshold(float32(math.Inf(1)))
			}
		}
		res := ClassifyApproxInto(cls, scr, h, sel, sc)
		for _, k := range []int{0, 1, 2, len(res.Candidates), len(res.Candidates) + 1, l, l + 3} {
			want := slices.Clone(tensor.TopKInto(res.Mixed, k, &buf))
			before := mRankFullSweep.Value()
			got := sc.RankMixed(res, k)
			// The serving case: a clean item, a few classes asked of a
			// real candidate set.
			if poison > 1 && poison < 6 && k > 0 && 4*k <= len(res.Candidates) {
				calls++
				sweeps += mRankFullSweep.Value() - before
			}
			if !slices.Equal(got, want) {
				t.Logf("seed %d l=%d %v k=%d floor=%v: got %v, want %v", seed, l, sel, k, res.Floor, got, want)
				return false
			}
			nanFree := len(got) > 0
			for _, c := range got {
				nanFree = nanFree && res.Mixed[c] == res.Mixed[c]
			}
			if nanFree && got[0] != res.Predict() {
				t.Logf("seed %d k=%d: head %d, Predict %d", seed, k, got[0], res.Predict())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	if calls == 0 || sweeps*4 > calls {
		t.Fatalf("%d of %d clean rankings swept the mixed vector: the candidate path is barely exercised", sweeps, calls)
	}
	t.Logf("%d of %d clean rankings swept the mixed vector", sweeps, calls)
}

// TestFloorBoundsNonCandidates pins Result.Floor itself: the smallest
// screened logit among the candidates, an upper bound on every other
// screened logit under both policies, NaN once a NaN is among the
// screened logits, +Inf with no candidates — and carried by the
// caller-owned clone.
func TestFloorBoundsNonCandidates(t *testing.T) {
	cls, samples := testModel(t, 300, 32, 2)
	scr, err := ProjectedScreener(cls, testConfig(300, 32))
	if err != nil {
		t.Fatal(err)
	}
	h := samples[0]
	z := scr.Screen(h)
	for _, sel := range []Selection{TopM(1), TopM(40), TopM(300), Threshold(z[tensor.TopK(z, 25)[24]])} {
		res := ClassifyApprox(cls, scr, h, sel)
		in := make(map[int]bool, len(res.Candidates))
		floor := float32(math.Inf(1))
		for _, c := range res.Candidates {
			in[c] = true
			floor = min(floor, z[c])
		}
		if math.Float32bits(res.Floor) != math.Float32bits(floor) {
			t.Fatalf("%v: Floor %v, smallest candidate logit %v", sel, res.Floor, floor)
		}
		for i, v := range z {
			if !in[i] && !(v <= res.Floor) {
				t.Fatalf("%v: non-candidate %d screened at %v above Floor %v", sel, i, v, res.Floor)
			}
		}
	}
	if res := ClassifyApprox(cls, scr, h, TopM(0)); !math.IsInf(float64(res.Floor), 1) {
		t.Fatalf("no candidates: Floor %v, want +Inf", res.Floor)
	}
	poisoned := slices.Clone(h)
	poisoned[0] = float32(math.Inf(1))
	for _, sel := range []Selection{TopM(10), Threshold(0)} {
		if res := ClassifyApprox(cls, scr, poisoned, sel); res.Floor == res.Floor {
			t.Fatalf("%v with NaN screened logits: Floor %v, want NaN", sel, res.Floor)
		}
	}
}

// TestRankMixedHandBuilt pins the two guards of the candidate ranking
// on results built by hand, each against tensor.TopKInto(Mixed, k): an
// exact logit equal to Floor does not outrank a non-candidate screened
// at Floor with a lower index (the tie goes to the lower index, so only
// a sweep can answer), and a NaN among the exact logits — which the
// heap cannot order — sends the ranking to the sweep even when the
// k-th ranked value clears Floor.
func TestRankMixedHandBuilt(t *testing.T) {
	nan := float32(math.NaN())
	sc := GetScratch()
	defer sc.Release()
	var buf tensor.TopKBuf
	for _, c := range []struct {
		name string
		res  Result
		k    int
		want []int
	}{
		{"tie-at-floor", Result{Mixed: []float32{5, 5, 1}, Candidates: []int{1}, Exact: []float32{5}, Floor: 5}, 1, []int{0}},
		{"above-floor", Result{Mixed: []float32{4.5, 5, 1}, Candidates: []int{1}, Exact: []float32{5}, Floor: 4.5}, 1, []int{1}},
		{"nan-exact", Result{
			Mixed:      []float32{6, 2, 0, 9, nan, 9, nan, 8, 7},
			Candidates: []int{0, 3, 4, 5, 6, 7, 8},
			Exact:      []float32{6, 9, nan, 9, nan, 8, 7},
			Floor:      4.5,
		}, 3, []int{3, 5, 7}},
	} {
		if ref := tensor.TopKInto(c.res.Mixed, c.k, &buf); !slices.Equal(ref, c.want) {
			t.Fatalf("%s: table says %v, TopKInto says %v", c.name, c.want, ref)
		}
		if got := sc.RankMixed(&c.res, c.k); !slices.Equal(got, c.want) {
			t.Fatalf("%s: RankMixed = %v, want %v", c.name, got, c.want)
		}
	}
}
