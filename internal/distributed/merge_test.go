package distributed

import (
	"testing"

	"enmc/internal/core"
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
	if got := MergeDedup([]Candidate{}, 5); len(got) != 0 {
		t.Fatalf("mergeDedup(empty) = %+v", got)
	}
}

// TestMergeDedupDuplicateClasses: duplicate class indices across
// shard replies (a mis-wired networked shard map) collapse to the
// highest logit before ranking.
func TestMergeDedupDuplicateClasses(t *testing.T) {
	in := []Candidate{
		{Class: 5, Logit: 0.5},
		{Class: 2, Logit: 0.7},
		{Class: 5, Logit: 1.0}, // same class, higher logit, other "shard"
		{Class: 2, Logit: 0.7}, // exact duplicate pair
	}
	got := MergeDedup(in, 0)
	want := []Candidate{{5, 1.0}, {2, 0.7}}
	if len(got) != len(want) {
		t.Fatalf("deduped to %d candidates (%+v), want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("deduped[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestShardRangeAndShardOne: a worker building only its own slice
// must agree with ShardClassifier building all of them — offsets,
// shapes, and bit-identical screener parameters.
func TestShardRangeAndShardOne(t *testing.T) {
	inst := testInstance(t)
	all, err := ShardClassifier(inst.Classifier, 3, inst.Train, trainCfg(), core.TrainOptions{Epochs: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	l := inst.Classifier.Categories()
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
		one, err := ShardOne(inst.Classifier, 3, i, inst.Train, trainCfg(), core.TrainOptions{Epochs: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if one.Offset != want.Offset {
			t.Fatalf("ShardOne(%d) offset %d, want %d", i, one.Offset, want.Offset)
		}
		// Screener parameters must be bit-identical (same derived seed).
		a, b := one.Screener.Wt.Data, want.Screener.Wt.Data
		if len(a) != len(b) {
			t.Fatalf("shard %d screener size %d vs %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("shard %d screener weight %d differs: %v vs %v", i, j, a[j], b[j])
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
