package cluster

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"

	"enmc/internal/decode"
	"enmc/internal/testkit"
	"enmc/internal/workload"
)

// TestAffinitySticky: once a session pins, every subsequent scatter
// for that session lands on the pinned replicas only.
func TestAffinitySticky(t *testing.T) {
	testkit.NoLeaks(t)
	_, shards, _ := fixture(t)
	var hits [fixShards][2]atomic.Int64
	urls, _ := startWorkers(t, shards, 2, func(shard, rep int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/v1/shard/screen" {
				hits[shard][rep].Add(1)
			}
			h.ServeHTTP(w, req)
		})
	})
	r := dialT(t, RouterConfig{ShardMap: urls})
	inst, _, _ := fixture(t)
	aff := r.NewAffinity()
	batch := [][]float32{inst.Test[0]}

	if _, _, err := r.classifyBatchAffine(context.Background(), batch, 12, 4, aff); err != nil {
		t.Fatal(err)
	}
	pins := aff.Pins()
	for sh, p := range pins {
		if p < 0 {
			t.Fatalf("shard %d unpinned after first call", sh)
		}
	}
	// Ten more calls: only the pinned replica of each shard may serve.
	before := [fixShards][2]int64{}
	for sh := range hits {
		for rep := range hits[sh] {
			before[sh][rep] = hits[sh][rep].Load()
		}
	}
	for i := 0; i < 10; i++ {
		if _, _, err := r.classifyBatchAffine(context.Background(), batch, 12, 4, aff); err != nil {
			t.Fatal(err)
		}
	}
	for sh := range hits {
		for rep := range hits[sh] {
			served := hits[sh][rep].Load() - before[sh][rep]
			if rep == pins[sh] && served != 10 {
				t.Fatalf("shard %d pinned replica %d served %d/10", sh, rep, served)
			}
			if rep != pins[sh] && served != 0 {
				t.Fatalf("shard %d unpinned replica %d served %d requests", sh, rep, served)
			}
		}
	}
}

// TestAffinityRepinOnFailure: killing the pinned replica re-pins the
// session onto a survivor via the ordinary failover path, and the
// re-pin is counted.
func TestAffinityRepinOnFailure(t *testing.T) {
	testkit.NoLeaks(t)
	inst, shards, _ := fixture(t)
	urls, srvs := startWorkers(t, shards, 2, nil)
	r := dialT(t, RouterConfig{ShardMap: urls})
	aff := r.NewAffinity()
	batch := [][]float32{inst.Test[0]}
	if _, _, err := r.classifyBatchAffine(context.Background(), batch, 12, 4, aff); err != nil {
		t.Fatal(err)
	}
	pinned := aff.Pins()[0]
	beforeRepin := mSessionRepin.Value()
	srvs[0][pinned].Close() // SIGKILL-equivalent for shard 0's pinned replica
	outs, part, err := r.classifyBatchAffine(context.Background(), batch, 12, 4, aff)
	if err != nil {
		t.Fatal(err)
	}
	if part.Partial {
		t.Fatalf("failover degraded to partial: %+v", part)
	}
	if len(outs[0].TopK) == 0 {
		t.Fatal("no candidates after failover")
	}
	if got := aff.Pins()[0]; got == pinned {
		t.Fatalf("shard 0 still pinned to dead replica %d", got)
	}
	if mSessionRepin.Value() != beforeRepin+1 {
		t.Fatalf("session_repin counter moved by %d, want 1", mSessionRepin.Value()-beforeRepin)
	}
}

// TestDecodeScorerOverCluster drives a full decode session through
// the router-backed scorer: tokens flow, the greedy choice matches
// the router's merged argmax, and the session's affinity pins.
func TestDecodeScorerOverCluster(t *testing.T) {
	testkit.NoLeaks(t)
	inst, shards, _ := fixture(t)
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
