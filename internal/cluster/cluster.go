// Package cluster turns the in-process row-sharded decomposition of
// internal/distributed into a multi-process serving topology: shard
// workers (cmd/enmc-shard) each own a contiguous row-slice of the
// class space and expose a compact HTTP shard API (binary screen
// frames, JSON control plane), while a Router scatter-gathers every
// query across all shards concurrently and merges the global top-k.
//
// The wire protocol is the paper's scale-out sketch made concrete:
// each node keeps an approximate screener, screens its slice
// locally, recomputes its local candidates exactly, and ships only
// the (class, logit) candidate pairs — never raw logit vectors — so
// the gather traffic per shard is O(m) instead of O(l/n), exactly
// the host/near-memory offload split ENMC argues for (screen where
// the data lives, move only what survived screening).
//
// The Router is production-shaped, not a toy fan-out: a static shard
// map with R replicas per shard, per-replica health probing with
// consecutive-failure ejection and re-admission, per-attempt
// timeouts with sequential failover across replicas (every replica
// once, at least two attempts per shard), and partial-failure
// degradation — when every replica of a shard is down the merged
// top-k of the surviving shards is served with the response marked
// partial instead of failing the query.
package cluster

import (
	"fmt"
	"strings"

	"enmc/internal/telemetry"
)

// Telemetry instruments on the default registry. shard_rpc_total
// counts attempts (failover retries included) and failover_total
// every attempt after a shard leg's first, so shard_rpc_total -
// failover_total is exactly the first-attempt count.
var (
	mShardRPCTotal  = telemetry.Default().Counter("cluster.shard_rpc_total")
	mShardRPCErrors = telemetry.Default().Counter("cluster.shard_rpc_errors")
	mFailoverTotal  = telemetry.Default().Counter("cluster.failover_total")
	mShardsHealthy  = telemetry.Default().Gauge("cluster.shards_healthy")
	mReplicaEjected = telemetry.Default().Counter("cluster.replica_ejected")
	mReplicaReadmit = telemetry.Default().Counter("cluster.replica_readmitted")
	mRPCNs          = telemetry.Default().Histogram("cluster.shard_rpc_ns", telemetry.LatencyBuckets())
)

// --- wire structs (/v1/shard/*; codec.go frames the screen pair) ---

// WireCandidate is one exact (class, logit) pair in GLOBAL class
// numbering — the only payload that crosses the gather wire.
type WireCandidate struct {
	Class int
	Logit float32
}

// ScreenResponse is the shard's reply: for every batch item, its
// exact top-m local candidates in global numbering, plus the shard's
// identity so the router can detect a mis-wired shard map and
// version skew mid-rolling-update. Spans is only populated when the
// request carried a trace context (X-Enmc-Trace-Id): the worker's
// screen/select/exact spans for this request, ticks relative to
// request receipt, so the router can rebase them under its own RPC
// span without any cross-host clock agreement.
type ScreenResponse struct {
	Offset  int
	Classes int
	Version string
	Items   [][]WireCandidate
	Spans   []SpanWire
}

// SpanWire is one worker-side span in a traced ScreenResponse. Start
// is nanoseconds since the worker received the request — relative by
// construction, so rebasing onto the router's RPC span start yields a
// correctly nested timeline with no clock sync.
type SpanWire struct {
	Name  string
	Cat   string
	TID   int
	Start int64
	Dur   int64
}

// ShardInfo is the GET /v1/shard/info body: the static identity the
// router reads once at Dial to learn the shard map geometry.
type ShardInfo struct {
	Offset  int    `json:"offset"`
	Classes int    `json:"classes"`
	Hidden  int    `json:"hidden"`
	Version string `json:"model_version,omitempty"`
}

// ParseShardMap parses a router shard-map spec: shards separated by
// ';', replicas of one shard separated by ','. Bare host:port
// entries get an http:// scheme.
//
//	"10.0.0.1:9001,10.0.0.2:9001;10.0.0.3:9002,10.0.0.4:9002"
//	→ 2 shards × 2 replicas
func ParseShardMap(spec string) ([][]string, error) {
	var out [][]string
	for _, group := range strings.Split(spec, ";") {
		group = strings.TrimSpace(group)
		if group == "" {
			continue
		}
		var reps []string
		for _, r := range strings.Split(group, ",") {
			r = strings.TrimSpace(r)
			if r == "" {
				continue
			}
			if !strings.Contains(r, "://") {
				r = "http://" + r
			}
			reps = append(reps, strings.TrimRight(r, "/"))
		}
		if len(reps) == 0 {
			return nil, fmt.Errorf("cluster: shard group %q has no replicas", group)
		}
		out = append(out, reps)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: empty shard map %q", spec)
	}
	return out, nil
}
