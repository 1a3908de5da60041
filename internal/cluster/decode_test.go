package cluster

import (
	"context"
	"testing"

	"enmc/internal/decode"
	"enmc/internal/testkit"
	"enmc/internal/workload"
)

// TestDecodeScorerOverCluster drives a full decode session through
// the router-backed scorer: tokens flow, the greedy choice matches
// the router's merged argmax.
func TestDecodeScorerOverCluster(t *testing.T) {
	testkit.NoLeaks(t)
	inst, shards := fixture(t)
	urls, _ := startWorkers(t, shards, 2, nil)
	r := dialT(t, RouterConfig{ShardMap: urls})

	ds := r.NewDecodeScorer()
	sc, err := ds.ScoreStep(context.Background(), inst.Test[0], 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Classes) == 0 || len(sc.Classes) != len(sc.LogProbs) {
		t.Fatalf("bad step score: %+v", sc)
	}
	outs, err := r.ClassifyBatch(context.Background(), [][]float32{inst.Test[0]}, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Classes[0] != outs[0].Class {
		t.Fatalf("scorer greedy %d, router argmax %d", sc.Classes[0], outs[0].Class)
	}
	for i := 1; i < len(sc.LogProbs); i++ {
		if sc.LogProbs[i] > sc.LogProbs[i-1] {
			t.Fatalf("log-probs not descending: %v", sc.LogProbs)
		}
	}

	// Full streaming session over the cluster, greedy and beam.
	dec := workload.NewDecoderFor(inst.Classifier, 7, 16)
	svc := decode.NewService(decode.Config{TopM: 12}, dec, func() decode.Scorer { return r.NewDecodeScorer() })
	defer svc.Shutdown()
	for _, mode := range []decode.Mode{decode.Greedy, decode.Beam} {
		sess, err := svc.Open(mode, 3, inst.Test[1])
		if err != nil {
			t.Fatal(err)
		}
		frames := 0
		fin, err := sess.Run(context.Background(), dec.MaxLen(), func(decode.Token) error {
			frames++
			return nil
		})
		if err != nil || !fin {
			t.Fatalf("%s session: fin=%v err=%v", mode, fin, err)
		}
		if frames != dec.MaxLen() {
			t.Fatalf("%s session emitted %d frames, want %d", mode, frames, dec.MaxLen())
		}
		if err := svc.Close(sess.ID); err != nil {
			t.Fatal(err)
		}
	}
}
