package server

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"enmc/internal/core"
	"enmc/internal/quant"
	"enmc/internal/tensor"
	"enmc/internal/workload"
	"enmc/internal/xrand"
)

// TestLocalMatchesMixedSweep: whichever way Local ranks an item — the
// m exact logits under Result.Floor, or the whole mixed vector — its
// answer is the one the parent's sweep gives: the top-k of
// tensor.TopKInto(Mixed, k), logits bit for bit, and the class
// Predict(). Random shapes and precisions, m = 1, random and l, k = 0,
// k > m and k > l, and batches carrying NaN- and Inf-poisoned vectors.
func TestLocalMatchesMixedSweep(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		l, d := 16+r.Intn(200), []int{16, 32}[r.Intn(2)]
		inst := workload.Generate(
			workload.Spec{Name: "rank-test", Categories: l, Hidden: d, LatentRank: 4, ZipfS: 1},
			workload.GenOptions{Seed: seed, Train: 0, Valid: 0, Test: 5})
		scr, err := core.ProjectedScreener(inst.Classifier, core.Config{
			Categories: l, Hidden: d, Reduced: d / 4, Seed: seed,
			Precision: []quant.Bits{quant.INT2, quant.INT4, quant.INT8}[r.Intn(3)],
		})
		if err != nil {
			t.Fatal(err)
		}
		backend, err := NewLocal(inst.Classifier, scr)
		if err != nil {
			t.Fatal(err)
		}
		batch := inst.Test
		for _, poison := range []float32{float32(math.NaN()), float32(math.Inf(1))} {
			h := append([]float32(nil), inst.Test[0]...)
			h[r.Intn(d)] = poison
			batch = append(batch, h)
		}
		m := []int{1, 1 + r.Intn(l), l}[r.Intn(3)]
		for _, k := range []int{0, 1, 5, m + 1, l + 3} {
			outs, err := backend.ClassifyBatch(context.Background(), batch, m, k)
			if err != nil {
				t.Fatal(err)
			}
			for i, h := range batch {
				res := core.ClassifyApprox(inst.Classifier, scr, h, core.TopM(m))
				want := tensor.TopK(res.Mixed, k)
				o := outs[i]
				if o.Class != res.Predict() || len(o.TopK) != len(want) {
					t.Logf("seed %d m=%d k=%d item %d: class %d (Predict %d), %d ranked (want %d)",
						seed, m, k, i, o.Class, res.Predict(), len(o.TopK), len(want))
					return false
				}
				for j, c := range want {
					if o.TopK[j].Class != c || math.Float32bits(o.TopK[j].Logit) != math.Float32bits(res.Mixed[c]) {
						t.Logf("seed %d m=%d k=%d item %d rank %d: %+v, want class %d", seed, m, k, i, j, o.TopK[j], c)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
