package cluster

import (
	"context"
	"io"
	"net/http"
	"time"
)

// failThreshold consecutive failed /readyz probes eject a replica;
// readmitThreshold consecutive successes re-admit it.
const (
	failThreshold    = 3
	readmitThreshold = 2
)

// probeLoop is the per-replica health state machine. The replica
// starts admitted (optimistic) and moves on the thresholds above.
// Ejection only changes failover ORDER — the data path
// still falls back to ejected replicas once the healthy ones are
// exhausted — so a probe-lag window can degrade latency but never
// availability.
func (r *Router) probeLoop(s *routerShard, rep *replica) {
	defer r.wg.Done()
	ticker := time.NewTicker(r.cfg.HealthInterval)
	defer ticker.Stop()
	fails, succs := 0, 0
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			if r.probeOnce(rep) {
				fails = 0
				succs++
				if !rep.healthy.Load() && succs >= readmitThreshold {
					rep.healthy.Store(true)
					mReplicaReadmit.Inc()
					mShardsHealthy.Set(float64(r.HealthyShards()))
				}
			} else {
				succs = 0
				fails++
				if rep.healthy.Load() && fails >= failThreshold {
					rep.healthy.Store(false)
					mReplicaEjected.Inc()
					mShardsHealthy.Set(float64(r.HealthyShards()))
				}
			}
		}
	}
}

// probeOnce is a single readiness probe: a 200 from /readyz within
// one HealthInterval. A draining worker answers 503, so graceful
// shutdowns eject through the same path as crashes.
func (r *Router) probeOnce(rep *replica) bool {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.HealthInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}
