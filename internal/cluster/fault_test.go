package cluster

import (
	"context"
	"net/http"
	"net/url"
	"testing"
	"time"

	"enmc/internal/distributed"
	"enmc/internal/testkit"
)

// faultQuery serves the fixture from 3 shards × 2 replicas, injects
// fault f into every screen RPC to replica 0 of shard 1, and runs one
// query through a router on that transport. Replica 0 is first in the
// first query's failover order, so the fault is met exactly once: the
// query must cost at most one failover, stay complete, and answer
// exactly what distributed.Classify does.
func faultQuery(t *testing.T, f testkit.Fault, setup func(*testkit.FaultTransport)) {
	t.Helper()
	inst, shards, _ := fixture(t)
	urls, _ := startWorkers(t, shards, 2, nil)
	bad, err := url.Parse(urls[1][0])
	if err != nil {
		t.Fatal(err)
	}
	base := &http.Transport{MaxIdleConnsPerHost: 8}
	ft := testkit.NewFaultTransport(int64(f)+1, base)
	ft.Match = func(req *http.Request) bool {
		return req.URL.Host == bad.Host && req.URL.Path == "/v1/shard/screen"
	}
	ft.Rate, ft.Faults = 1, []testkit.Fault{f}
	if setup != nil {
		setup(ft)
	}
	// Router.Close reaches base's idle connections through ft.
	r := dialT(t, RouterConfig{ShardMap: urls, Client: &http.Client{Transport: ft}, Timeout: 300 * time.Millisecond})

	batch := inst.Test[:3]
	const m, topK = 24, 5
	failBefore := mFailoverTotal.Value()
	outs, p, err := r.ClassifyBatchPartial(context.Background(), batch, m, topK)
	if err != nil {
		t.Fatal(err)
	}
	if n := ft.Injected(f); n != 1 {
		t.Fatalf("%v injected %d times, want 1", f, n)
	}
	if d := mFailoverTotal.Value() - failBefore; d > 1 {
		t.Fatalf("failover_total delta %d, want ≤ 1", d)
	}
	if p.Partial {
		t.Fatalf("one faulty replica degraded to partial: %+v", p)
	}
	per := (m + fixShards - 1) / fixShards
	for i, h := range batch {
		want, err := distributed.Classify(shards, h, per, topK)
		if err != nil {
			t.Fatal(err)
		}
		assertOutcome(t, i, outs[i], want)
	}
}

// TestRouterStalledReplica: a replica that accepts the request and
// never answers costs one per-attempt timeout and one failover.
func TestRouterStalledReplica(t *testing.T) {
	testkit.NoLeaks(t)
	faultQuery(t, testkit.FaultStall, nil)
}

// TestRouterFrameCutMidCandidate: a reply cut inside its last
// candidate, delivered as a complete response, is caught by the
// frame's own length and fails over instead of merging a short item.
func TestRouterFrameCutMidCandidate(t *testing.T) {
	testkit.NoLeaks(t)
	faultQuery(t, testkit.FaultCut, func(ft *testkit.FaultTransport) {
		// An untraced reply ends with its last (class, logit) pair and
		// a 4-byte zero span count: keep one byte of the last logit.
		ft.Cut = func(n int) int { return n - 4 - 3 }
	})
}

// TestRouterResetAfterHeaders: a connection reset after a 200's
// headers is a failed attempt, not an empty reply.
func TestRouterResetAfterHeaders(t *testing.T) {
	testkit.NoLeaks(t)
	faultQuery(t, testkit.FaultReset, nil)
}
