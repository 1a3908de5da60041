package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"enmc/internal/distributed"
	"enmc/internal/server"
	"enmc/internal/telemetry"
)

// RouterConfig tunes the scatter-gather router. Zero values take the
// documented defaults in Dial.
type RouterConfig struct {
	// ShardMap is the static topology: ShardMap[i] lists shard i's
	// replica base URLs (see ParseShardMap).
	ShardMap [][]string
	// Timeout bounds one RPC attempt to one replica (default 2s). A
	// shard leg tries every replica once, and at least twice in all.
	Timeout time.Duration
	// HealthInterval is the per-replica /readyz probe period and
	// bounds one probe (default 500ms; negative disables probing).
	HealthInterval time.Duration
	// Client overrides the HTTP client (default: pooled transport).
	Client *http.Client
}

func (c *RouterConfig) defaults() {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
}

// replica is one worker process serving a shard. healthy is owned by
// the probe loop (and optimistically true at start); the data path
// only reads it to order failover candidates — an ejected replica is
// still tried as a last resort, so recovery never waits on a probe.
type replica struct {
	url     string
	healthy atomic.Bool
}

// routerShard is the router's view of one row-slice: its replicas and
// the round-robin cursor.
type routerShard struct {
	id      int
	offset  int
	classes int
	version atomic.Pointer[string]

	replicas []*replica
	next     atomic.Uint32
}

// replicaOrderInto appends the failover sequence for one query into
// order (reusing its backing array): healthy replicas first, rotated
// by the round-robin cursor, then ejected ones as a last resort (so a
// shard whose probes all fail is still reachable the instant a worker
// comes back). Two passes over a handful of replicas beat a second
// scratch slice.
func (s *routerShard) replicaOrderInto(order []*replica) []*replica {
	n := len(s.replicas)
	start := int(s.next.Add(1)-1) % n
	order = order[:0]
	for i := 0; i < n; i++ {
		if rep := s.replicas[(start+i)%n]; rep.healthy.Load() {
			order = append(order, rep)
		}
	}
	for i := 0; i < n; i++ {
		if rep := s.replicas[(start+i)%n]; !rep.healthy.Load() {
			order = append(order, rep)
		}
	}
	return order
}

// Router scatter-gathers classification across networked shard
// workers and merges the global top-k. It implements server.Backend
// (plus the partial-result and version-skew extensions), so
// enmc-serve can put the full micro-batching/admission/degradation
// stack in front of a cluster unchanged.
type Router struct {
	cfg    RouterConfig
	client *http.Client
	shards []*routerShard
	hidden int

	categories int
	stop       chan struct{}
	wg         sync.WaitGroup
	closeOnce  sync.Once
}

// Dial learns the shard map geometry from each shard's
// /v1/shard/info (trying replicas in order), validates that the
// slices tile the class space exactly, and starts the per-replica
// health probe loops.
func Dial(ctx context.Context, cfg RouterConfig) (*Router, error) {
	cfg.defaults()
	if len(cfg.ShardMap) == 0 {
		return nil, fmt.Errorf("cluster: empty shard map")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 64},
		}
	}
	r := &Router{cfg: cfg, client: client, stop: make(chan struct{})}
	for i, group := range cfg.ShardMap {
		if len(group) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no replicas", i)
		}
		s := &routerShard{id: i, offset: -1}
		for _, u := range group {
			rep := &replica{url: u}
			rep.healthy.Store(true)
			s.replicas = append(s.replicas, rep)
		}
		var lastErr error
		for _, rep := range s.replicas {
			info, err := fetchInfo(ctx, client, rep.url, cfg.Timeout)
			if err != nil {
				lastErr = err
				continue
			}
			s.offset, s.classes = info.Offset, info.Classes
			v := info.Version
			s.version.Store(&v)
			if r.hidden == 0 {
				r.hidden = info.Hidden
			} else if info.Hidden != r.hidden {
				return nil, fmt.Errorf("cluster: shard %d hidden dim %d disagrees with %d", i, info.Hidden, r.hidden)
			}
			break
		}
		if s.offset < 0 {
			return nil, fmt.Errorf("cluster: shard %d: no replica reachable: %v", i, lastErr)
		}
		r.shards = append(r.shards, s)
	}

	// The row slices must tile [0, total) exactly: a gap would
	// silently drop classes, an overlap would double-count them.
	byOffset := append([]*routerShard(nil), r.shards...)
	sort.Slice(byOffset, func(a, b int) bool { return byOffset[a].offset < byOffset[b].offset })
	want := 0
	for _, s := range byOffset {
		if s.offset != want {
			return nil, fmt.Errorf("cluster: shard map does not tile the class space: shard %d covers [%d,%d), want offset %d",
				s.id, s.offset, s.offset+s.classes, want)
		}
		want += s.classes
	}
	r.categories = want

	if tr := telemetry.Global(); tr.Enabled() {
		// Process lanes for distributed captures: the router is PID 0,
		// shard i's remote spans land on PID 1+i (see rpcOnce).
		tr.SetProcessName(0, "enmc-serve router")
		for _, s := range r.shards {
			tr.SetThreadName(telemetry.TrackClusterBase+s.id, fmt.Sprintf("cluster shard %d rpc", s.id))
			tr.SetProcessName(1+s.id, fmt.Sprintf("enmc-shard %d", s.id))
		}
	}
	mShardsHealthy.Set(float64(len(r.shards)))
	if cfg.HealthInterval > 0 {
		for _, s := range r.shards {
			for _, rep := range s.replicas {
				r.wg.Add(1)
				go r.probeLoop(s, rep)
			}
		}
	}
	return r, nil
}

func fetchInfo(ctx context.Context, client *http.Client, base string, timeout time.Duration) (*ShardInfo, error) {
	ictx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ictx, http.MethodGet, base+"/v1/shard/info", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("cluster: %s/v1/shard/info: HTTP %d", base, resp.StatusCode)
	}
	var info ShardInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, err
	}
	// Drain the trailing newline json.Encoder wrote: the decoder stops
	// at the closing brace, and a connection handed back with unread
	// bytes is torn down instead of reused.
	_, _ = io.Copy(io.Discard, resp.Body)
	if info.Classes <= 0 || info.Hidden <= 0 || info.Offset < 0 {
		return nil, fmt.Errorf("cluster: %s reported bad geometry %+v", base, info)
	}
	return &info, nil
}

// Close stops the health probe loops and releases idle connections.
func (r *Router) Close() {
	r.closeOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
	r.client.CloseIdleConnections()
}

// Hidden implements server.Backend.
func (r *Router) Hidden() int { return r.hidden }

// Categories implements server.Backend.
func (r *Router) Categories() int { return r.categories }

// Shards reports the shard count.
func (r *Router) Shards() int { return len(r.shards) }

// HealthyShards reports how many shards currently have at least one
// non-ejected replica.
func (r *Router) HealthyShards() int {
	n := 0
	for _, s := range r.shards {
		for _, rep := range s.replicas {
			if rep.healthy.Load() {
				n++
				break
			}
		}
	}
	return n
}

// ModelVersion implements server.Versioned: the uniform shard
// version, or the distinct versions joined with "," while a rolling
// update is in flight.
func (r *Router) ModelVersion() string { return strings.Join(r.distinctVersions(), ",") }

// VersionSkew implements server.SkewReporter.
func (r *Router) VersionSkew() bool { return len(r.distinctVersions()) > 1 }

func (r *Router) distinctVersions() []string {
	seen := map[string]bool{}
	var vs []string
	for _, s := range r.shards {
		v := ""
		if p := s.version.Load(); p != nil {
			v = *p
		}
		if !seen[v] {
			seen[v] = true
			vs = append(vs, v)
		}
	}
	sort.Strings(vs)
	return vs
}

// ClassifyBatch implements server.Backend: the partial flag is
// dropped — serving layers that can surface it use
// ClassifyBatchPartial (the server does, via server.PartialBackend).
func (r *Router) ClassifyBatch(ctx context.Context, batch [][]float32, m, topK int) ([]server.Outcome, error) {
	outs, _, err := r.ClassifyBatchPartial(ctx, batch, m, topK)
	return outs, err
}

// ClassifyBatchPartial implements server.PartialBackend: scatter the
// batch across every shard concurrently, gather the per-shard exact
// candidate pairs, and merge the global top-k. When a shard's leg
// runs out of attempts (every replica once, at least two in all), the
// query degrades instead of failing: the merged top-k of the
// surviving shards is returned with Partial set and the missing shard
// ids listed. Only all-shards-down (or cancellation) returns an error.
func (r *Router) ClassifyBatchPartial(ctx context.Context, batch [][]float32, m, topK int) ([]server.Outcome, server.Partial, error) {
	if len(batch) == 0 {
		return nil, server.Partial{}, nil
	}
	per := (m + len(r.shards) - 1) / len(r.shards)
	if per < 1 {
		per = 1
	}
	// One encode per micro-batch, shared by every shard and retry.
	// The frame is a plain slice: a transport still reading it after
	// Do returns keeps it alive, and the garbage collector frees it.
	bin, err := AppendScreenRequest(nil, per, batch)
	if err != nil {
		return nil, server.Partial{}, err
	}

	// One result per shard, in one allocation.
	legs := make([]struct {
		rep *ScreenResponse
		sc  *WireScratch
		err error
	}, len(r.shards))
	var wg sync.WaitGroup
	for i, s := range r.shards {
		wg.Add(1)
		go func(i int, s *routerShard) {
			defer wg.Done()
			legs[i].rep, legs[i].sc, legs[i].err = r.callShard(ctx, s, bin, len(batch))
		}(i, s)
	}
	wg.Wait()
	// The winning replies may live in pooled decode scratch; the merge
	// loop below copies everything it keeps, so the scratch goes back
	// to the pool on every exit past this point.
	defer func() {
		for _, l := range legs {
			if l.sc != nil {
				l.sc.Release()
			}
		}
	}()
	var missing []int
	var lastErr error
	for i, l := range legs {
		if l.err != nil {
			missing = append(missing, i)
			lastErr = l.err
		}
	}
	if lastErr != nil && telemetry.OutcomeOfErr(ctx, lastErr) != telemetry.Fault {
		// The caller ended the request, not the shards: no partial merge.
		return nil, server.Partial{}, ctx.Err()
	}
	if len(missing) == len(r.shards) {
		return nil, server.Partial{}, fmt.Errorf("cluster: all %d shards unreachable: %w", len(r.shards), lastErr)
	}

	outs := make([]server.Outcome, len(batch))
	pool := make([]distributed.Candidate, 0, len(r.shards)*per)
	// top_k = 0 still ranks one, as server.Local does: its head is the
	// class. (Merge reads a topK <= 0 as "keep everything".)
	topK = max(topK, 0)
	rank := max(topK, 1)
	// One top-k backing array for the whole batch instead of one
	// allocation per item: each item keeps at most topK, so the arena
	// never regrows and the three-index subslices stay stable. The
	// caller owns the returned Outcomes, so this cannot be pooled.
	ckAll := make([]server.Candidate, 0, len(batch)*topK)
	for i := range batch {
		pool = pool[:0]
		for _, l := range legs {
			if l.rep == nil {
				continue
			}
			for _, c := range l.rep.Items[i] {
				pool = append(pool, distributed.Candidate{Class: c.Class, Logit: c.Logit})
			}
		}
		// checkReply kept each reply's classes strictly ascending
		// inside its own shard's slice, so no class is in the pool twice.
		merged := distributed.Merge(pool, rank)
		start := len(ckAll)
		for _, c := range merged[:min(topK, len(merged))] {
			ckAll = append(ckAll, server.Candidate{Class: c.Class, Logit: c.Logit})
		}
		o := server.Outcome{TopK: ckAll[start:len(ckAll):len(ckAll)]}
		if len(merged) > 0 {
			o.Class = merged[0].Class
		}
		outs[i] = o
	}
	return outs, server.Partial{Partial: len(missing) > 0, MissingShards: missing}, nil
}

// callShard runs one shard's scatter leg: replicas in failover order,
// one attempt at a time, each under the per-attempt timeout, until one
// answers. Every replica gets one try and the leg at least two, so a
// single-replica shard retries its replica once.
func (r *Router) callShard(ctx context.Context, s *routerShard, bin []byte, nItems int) (*ScreenResponse, *WireScratch, error) {
	var buf [8]*replica // the failover order, on the stack up to 8 replicas
	order := s.replicaOrderInto(buf[:0])
	var lastErr error
	for i := range max(len(order), 2) {
		if i > 0 {
			mFailoverTotal.Inc()
		}
		resp, sc, err := r.rpcOnce(ctx, s, order[i%len(order)], bin, nItems)
		if err == nil {
			return resp, sc, nil
		}
		if telemetry.OutcomeOfErr(ctx, err) != telemetry.Fault {
			return nil, nil, ctx.Err() // the caller's end, not the shard's
		}
		lastErr = err
	}
	return nil, nil, lastErr
}

// rpcOnce is one attempt against one replica under the per-attempt
// timeout. Successful attempts record a span on the shard's trace
// lane; when the request context carries a trace, the trace ships to
// the worker on the wire headers and the worker's returned spans are
// rebased under this attempt's span on the shard's process lane
// (PID 1+id). Any non-200 — a 415 or 400 from a worker that does not
// speak this frame included — is an ordinary failed attempt, and so is
// a per-attempt timeout; an attempt cut short because the caller's ctx
// ended is no shard failure and bumps no error count.
//
// The returned WireScratch owns the decoded response's backing
// memory; the caller releases it once done with the response.
func (r *Router) rpcOnce(ctx context.Context, s *routerShard, rep *replica, bin []byte, nItems int) (*ScreenResponse, *WireScratch, error) {
	mShardRPCTotal.Inc()
	tr := telemetry.Global()
	tc, traced := telemetry.TraceCtxFrom(ctx)
	spanStart := tr.Now()
	actx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
	defer cancel()
	start := time.Now()
	fail := func(err error) (*ScreenResponse, *WireScratch, error) {
		if telemetry.OutcomeOfErr(ctx, err) != telemetry.Fault {
			// The caller gave up, not the shard: no error, no FAIL span.
			return nil, nil, err
		}
		mShardRPCErrors.Inc()
		if tr.Enabled() {
			tr.Add(telemetry.Span{
				Name: fmt.Sprintf("rpc %s FAIL", rep.url), Cat: "rpc",
				TID:   telemetry.TrackClusterBase + s.id,
				Start: spanStart, Dur: tr.Now() - spanStart, Trace: tc.TraceID,
			})
		}
		return nil, nil, err
	}
	sr, sc, err := r.screenRPC(actx, s, rep, bin, tc, traced)
	if err != nil {
		return fail(err)
	}
	if err := s.checkReply(sr, nItems); err != nil {
		sc.Release()
		return fail(fmt.Errorf("cluster: shard %d replica %s: %w", s.id, rep.url, err))
	}
	mRPCNs.Observe(float64(time.Since(start)))
	if tr.Enabled() {
		tr.Add(telemetry.Span{
			Name: fmt.Sprintf("rpc %s", rep.url), Cat: "rpc",
			TID:   telemetry.TrackClusterBase + s.id,
			Start: spanStart, Dur: tr.Now() - spanStart, Trace: tc.TraceID,
		})
		// Rebase the worker's spans (ticks since request receipt) onto
		// this attempt's start: nesting holds positionally, so one
		// capture shows the shard's screen pipeline under its RPC with
		// no cross-host clock agreement. The wire time skips request
		// decode/network, so worker spans sit a hair late inside the
		// RPC span — conservative, never overlapping outside it.
		for _, ws := range sr.Spans {
			tr.Add(telemetry.Span{
				Name: ws.Name, Cat: ws.Cat, PID: 1 + s.id, TID: ws.TID,
				Start: spanStart + ws.Start, Dur: ws.Dur, Trace: tc.TraceID,
			})
		}
	}
	// Copy the version out of the response: sr.Version lives inside
	// pooled WireScratch memory, and the next decode into a recycled
	// scratch would rewrite the field under concurrent
	// distinctVersions readers.
	v := sr.Version
	s.version.Store(&v)
	return sr, sc, nil
}

// checkReply holds a decoded reply to the shard's identity: the item
// count the router sent, the slice geometry learned at Dial, and every
// item's classes inside that slice and strictly ascending, the order
// a worker's top-m select returns them in. A replica restarted as
// another shard behind the same address answers with someone else's
// slice; merging it would score that slice twice and this one never,
// and a repeated class would take two places in the top-k. Such a
// reply is a failed attempt instead and the shard fails over (or ends
// partial).
func (s *routerShard) checkReply(sr *ScreenResponse, nItems int) error {
	if len(sr.Items) != nItems {
		return fmt.Errorf("%d items in reply, want %d", len(sr.Items), nItems)
	}
	if sr.Offset != s.offset || sr.Classes != s.classes {
		return fmt.Errorf("reply serves rows [%d,%d), want [%d,%d)",
			sr.Offset, sr.Offset+sr.Classes, s.offset, s.offset+s.classes)
	}
	for _, item := range sr.Items {
		for j, c := range item {
			if c.Class < s.offset || c.Class >= s.offset+s.classes {
				return fmt.Errorf("candidate class %d outside rows [%d,%d)", c.Class, s.offset, s.offset+s.classes)
			}
			if j > 0 && c.Class <= item[j-1].Class {
				return fmt.Errorf("candidate class %d after %d: classes not strictly ascending", c.Class, item[j-1].Class)
			}
		}
	}
	return nil
}

// screenRPC is one HTTP round trip to one replica. Over a
// *bytes.Reader, net/http sets ContentLength and a GetBody that replays
// the frame on a stale keep-alive connection. Bodies are read to EOF on
// every path so the connection goes back to the keep-alive pool.
func (r *Router) screenRPC(ctx context.Context, s *routerShard, rep *replica, bin []byte, tc telemetry.TraceCtx, traced bool) (*ScreenResponse, *WireScratch, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+"/v1/shard/screen", bytes.NewReader(bin))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", ContentTypeScreenV2)
	if traced {
		// This attempt is the worker's parent span: a fresh span ID
		// under the request's trace.
		telemetry.InjectTrace(req.Header, telemetry.TraceCtx{
			TraceID: tc.TraceID, SpanID: telemetry.NewSpanID(),
		})
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, nil, fmt.Errorf("cluster: shard %d replica %s: HTTP %d", s.id, rep.url, resp.StatusCode)
	}
	sc := GetWireScratch()
	frame, err := sc.ReadFrame(resp.Body)
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		var sr *ScreenResponse
		if sr, err = DecodeScreenResponse(frame, sc); err == nil {
			return sr, sc, nil
		}
	}
	sc.Release()
	return nil, nil, fmt.Errorf("cluster: shard %d replica %s: bad reply: %w", s.id, rep.url, err)
}
