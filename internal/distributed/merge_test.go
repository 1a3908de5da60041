package distributed

import (
	"slices"
	"testing"

	"enmc/internal/quant"
)

// TestMergeOrderingAndTies: the aggregator must rank descending by
// exact logit with exact ties broken by ascending class — the
// deterministic order both the in-process scatter and the networked
// router rely on for bit-identical merges.
func TestMergeOrderingAndTies(t *testing.T) {
	in := []Candidate{
		{Class: 7, Logit: 1.5},
		{Class: 3, Logit: 2.0},
		{Class: 9, Logit: 2.0}, // exact tie with class 3
		{Class: 1, Logit: -4.0},
	}
	got := Merge(in, 0)
	want := []Candidate{{3, 2.0}, {9, 2.0}, {7, 1.5}, {1, -4.0}}
	if len(got) != len(want) {
		t.Fatalf("merged %d candidates, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Truncation respects the same order.
	top := Merge(append([]Candidate(nil), want...), 2)
	if len(top) != 2 || top[0] != want[0] || top[1] != want[1] {
		t.Fatalf("top-2 = %+v", top)
	}
}

// TestMergeEmpty: an empty (or nil) gather pool merges to an empty
// top-k — the shape a shard replying with zero candidates produces.
func TestMergeEmpty(t *testing.T) {
	if got := Merge(nil, 5); len(got) != 0 {
		t.Fatalf("merge(nil) = %+v", got)
	}
	if got := Merge([]Candidate{}, 5); len(got) != 0 {
		t.Fatalf("merge(empty) = %+v", got)
	}
}

// TestShardRangeAndShardOne: a worker building only its own slice
// must agree with ShardClassifier building all of them, and each
// shard holds copies of exactly rows [off,end) of the model's
// classifier and screener (quantized weights, scales, bias) under the
// model's one projection.
func TestShardRangeAndShardOne(t *testing.T) {
	inst := testInstance(t)
	whole := testScreener(t, inst, 2)
	all, err := ShardClassifier(inst.Classifier, whole, 3)
	if err != nil {
		t.Fatal(err)
	}
	l, d := inst.Classifier.Categories(), inst.Classifier.Hidden()
	stride := quant.PayloadBytes(whole.QW.Bits, 1, whole.QW.Cols)
	covered := 0
	for i, want := range all {
		off, end, err := ShardRange(l, 3, i)
		if err != nil {
			t.Fatal(err)
		}
		if off != want.Offset || end-off != want.Classifier.Categories() {
			t.Fatalf("ShardRange(%d) = [%d,%d), ShardClassifier shard covers [%d,%d)",
				i, off, end, want.Offset, want.Offset+want.Classifier.Categories())
		}
		covered += end - off
		one, err := ShardOne(inst.Classifier, whole, 3, i)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range []Shard{one, want} {
			scr := sh.Screener
			if sh.Offset != off || scr.P != whole.P || scr.Cfg.Categories != end-off || scr.Cfg.Seed != whole.Cfg.Seed {
				t.Fatalf("shard %d: offset %d, %d rows, seed %d, shared P %v",
					i, sh.Offset, scr.Cfg.Categories, scr.Cfg.Seed, scr.P == whole.P)
			}
			if !slices.Equal(sh.Classifier.W.Data, inst.Classifier.W.Data[off*d:end*d]) ||
				!slices.Equal(sh.Classifier.B, inst.Classifier.B[off:end]) ||
				!slices.Equal(scr.QW.Payload(), whole.QW.Payload()[off*stride:end*stride]) ||
				!slices.Equal(scr.QW.Scales, whole.QW.Scales[off:end]) ||
				!slices.Equal(scr.Bt, whole.Bt[off:end]) {
				t.Fatalf("shard %d does not hold rows [%d,%d) of the model", i, off, end)
			}
			if &sh.Classifier.W.Data[0] == &inst.Classifier.W.Data[off*d] {
				t.Fatalf("shard %d classifier aliases the model's weights", i)
			}
		}
	}
	if covered != l {
		t.Fatalf("shards cover %d of %d classes", covered, l)
	}
	if _, _, err := ShardRange(l, 3, 3); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
	if _, _, err := ShardRange(l, 0, 0); err == nil {
		t.Fatal("zero shard count accepted")
	}
}
