package distributed

import (
	"strings"
	"testing"

	"enmc/internal/core"
	"enmc/internal/quant"
	"enmc/internal/workload"
)

func testInstance(t *testing.T) *workload.Instance {
	t.Helper()
	spec := workload.Spec{Name: "dist", Categories: 480, Hidden: 64, LatentRank: 16, ZipfS: 1}
	return workload.Generate(spec, workload.GenOptions{Seed: 13, Train: 256, Valid: 16, Test: 24})
}

// testScreener trains the instance's screener for the given epochs.
func testScreener(t *testing.T, inst *workload.Instance, epochs int) *core.Screener {
	t.Helper()
	cfg := core.Config{Categories: 480, Hidden: 64, Reduced: 16, Precision: quant.INT4, Seed: 2}
	scr, _, err := core.TrainScreener(inst.Classifier, inst.Train, cfg, core.TrainOptions{Epochs: epochs, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return scr
}

// testShards splits the instance's model, with a screener trained
// for the given epochs, into n shards.
func testShards(t *testing.T, inst *workload.Instance, n, epochs int) []Shard {
	t.Helper()
	shards, err := ShardClassifier(inst.Classifier, testScreener(t, inst, epochs), n)
	if err != nil {
		t.Fatal(err)
	}
	return shards
}

func TestShardClassifierSplits(t *testing.T) {
	inst := testInstance(t)
	shards := testShards(t, inst, 4, 6)
	if len(shards) != 4 {
		t.Fatalf("shards = %d", len(shards))
	}
	total := 0
	for _, s := range shards {
		total += s.Classifier.Categories()
	}
	if total != 480 {
		t.Fatalf("shards cover %d classes", total)
	}
	scr := shards[0].Screener // any screener: the count is checked first
	if _, err := ShardClassifier(inst.Classifier, scr, 0); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := ShardClassifier(inst.Classifier, scr, 481); err == nil {
		t.Fatal("more shards than classes accepted")
	}
	if _, err := ShardOne(inst.Classifier, scr, 4, 0); err == nil {
		t.Fatal("a screener of another shape accepted")
	}
}

// TestShardedMatchesSingleNode: the distributed classification must
// recover the same global top classes as a single-node screener with
// the same total budget (both approximate the same exact layer, so we
// compare both against exact).
func TestShardedMatchesSingleNode(t *testing.T) {
	inst := testInstance(t)
	shards := testShards(t, inst, 4, 8)
	hits := 0
	for _, h := range inst.Test {
		merged, err := Classify(shards, h, 12, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(merged) != 5 {
			t.Fatalf("merged top-k = %d", len(merged))
		}
		exact := inst.Classifier.Predict(h)
		if merged[0].Class == exact {
			hits++
		}
		// Exact logits must be carried through the merge.
		full := inst.Classifier.Logits(h)
		for _, c := range merged {
			if full[c.Class] != c.Logit {
				t.Fatalf("merged logit for class %d not exact", c.Class)
			}
		}
		// Descending order.
		for i := 1; i < len(merged); i++ {
			if merged[i].Logit > merged[i-1].Logit {
				t.Fatal("merge not sorted")
			}
		}
	}
	if hits < len(inst.Test)*8/10 {
		t.Fatalf("distributed top-1 recovery %d/%d", hits, len(inst.Test))
	}
}

func TestClassifyValidation(t *testing.T) {
	if _, err := Classify(nil, nil, 1, 1); err == nil {
		t.Fatal("empty shards accepted")
	}
	if _, err := Classify([]Shard{{}}, make([]float32, 4), 1, 1); err == nil {
		t.Fatal("incomplete shard accepted")
	}
	inst := testInstance(t)
	shards := testShards(t, inst, 2, 2)
	merged, err := Classify(shards, inst.Test[0], 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 3 {
		t.Fatalf("top-k = %d, want 3", len(merged))
	}
}

// TestClassifyCtxErrorPaths checks Classify's error paths on a real
// shard set: no shards, and a later shard missing its screener, which
// must error by index rather than panic.
func TestClassifyCtxErrorPaths(t *testing.T) {
	if _, err := Classify(nil, make([]float32, 4), 1, 1); err == nil {
		t.Fatal("empty shards accepted")
	}
	inst := testInstance(t)
	shards := testShards(t, inst, 2, 2)
	broken := []Shard{shards[0], {Offset: shards[1].Offset, Classifier: shards[1].Classifier}}
	if _, err := Classify(broken, inst.Test[0], 4, 3); err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("incomplete shard 1: err = %v", err)
	}
}
