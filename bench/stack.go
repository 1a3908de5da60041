package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"enmc/internal/cluster"
	"enmc/internal/decode"
	"enmc/internal/server"
	"enmc/internal/tenant"
	"enmc/internal/workload"
)

// loadKind is how a workload offers load.
type loadKind int

const (
	closedSingle loadKind = iota // /v1/classify, one client per core, each waits for its reply
	closedBatch                  // /v1/classify_batch with batchItems items, one client
	openSingle                   // /v1/classify on a seeded arrival schedule
	closedDecode                 // /v1/decode greedy ndjson sessions, one per core
)

const (
	batchItems   = 16 // items per /v1/classify_batch request
	decodeTokens = 32 // tokens per decode session
	clusterNodes = 3
	decoderSeed  = modelSeed ^ 0xdec
	benchAPIKey  = "bench-key"

	// openRate is nmt32k-cluster-open's arrival rate in requests per
	// second: about 40 % of the 186/s the same stack sustains with
	// every connection kept busy on the recording host (2 vCPU Xeon at
	// 2.1 GHz). It is frozen, not calibrated per run: a rate that
	// followed the system's speed would hide a latency change.
	openRate = 72
)

// spec is one benchmark workload. limit is the answer-time limit that
// within_limit_frac is judged against: per request on the classify
// workloads, per token frame on decode.
type spec struct {
	name   string
	shape  string
	kind   loadKind
	shards int
	limit  time.Duration
	rate   float64 // open loop only: arrivals per second
}

var specs = []spec{
	{name: "xc670k-single", shape: "xc670k", kind: closedSingle, shards: 1, limit: 150 * time.Millisecond},
	{name: "xc670k-batch", shape: "xc670k", kind: closedBatch, shards: 1, limit: 1200 * time.Millisecond},
	{name: "nmt32k-cluster-open", shape: "nmt32k", kind: openSingle, shards: clusterNodes, limit: 30 * time.Millisecond, rate: openRate},
	{name: "nmt32k-decode", shape: "nmt32k", kind: closedDecode, shards: 1, limit: 10 * time.Millisecond},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// clustered reports whether the workload runs the router and workers.
func (s spec) clustered() bool { return s.shards > 1 }

// stack is the serving system hosted in this process, reached only
// over loopback HTTP. tr is nil on untraced runs, which carry no tap
// at all.
type stack struct {
	base    string // front-end URL
	apiKey  string
	tenants *tenant.Resolver
	decoder *workload.Decoder
	tr      *tracer
	stops   []func()
}

func (st *stack) stop() {
	for i := len(st.stops) - 1; i >= 0; i-- {
		st.stops[i]()
	}
}

// listen serves h on a loopback port and returns its URL. The stop
// function waits for the server goroutine.
func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	st.stops = append(st.stops, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			_ = srv.Close()
		}
		wg.Wait()
	})
	return "http://" + ln.Addr().String(), nil
}

// startStack hosts the workload's serving stack over m. Everything is
// at its default except the screening budget, which is the shape's m.
func startStack(sp spec, m *model, tr *tracer) (st *stack, err error) {
	st = &stack{tr: tr}
	defer func() {
		if err != nil {
			st.stop()
		}
	}()
	cfg := server.Config{TopM: m.shape.m}
	var backend server.Backend
	if sp.clustered() {
		router, err := st.startCluster(m)
		if err != nil {
			return nil, err
		}
		backend = router
		// One configured standard-class tenant whose quota is far
		// above the offered rate, so admission runs and never refuses.
		st.apiKey = benchAPIKey
		st.tenants, err = tenant.NewResolver(tenant.File{Tenants: []tenant.Spec{
			{Name: "bench", Key: benchAPIKey, Class: string(tenant.Standard), Rate: 1e6, Burst: 1e6},
		}})
		if err != nil {
			return nil, err
		}
		cfg.Tenants = st.tenants
	} else {
		backend, err = server.NewLocal(m.cls, m.screener())
		if err != nil {
			return nil, err
		}
	}
	if tr != nil {
		backend = tapBackend(tr, backend)
	}
	srv, err := server.New(backend, cfg)
	if err != nil {
		return nil, err
	}
	st.stops = append(st.stops, srv.Drain)
	if st.tenants == nil {
		st.tenants = srv.Tenants()
	}
	if sp.kind == closedDecode {
		st.decoder = workload.NewDecoderFor(m.cls, decoderSeed, decodeTokens)
		svc := decode.NewService(decode.Config{TopM: m.shape.m}, st.decoder, func() decode.Scorer {
			var sc decode.Scorer = decode.NewLocalScorer(m.cls, m.screener(), decode.LocalScorerConfig{})
			if tr != nil {
				sc = &scorerTap{t: tr, inner: sc}
			}
			return sc
		})
		srv.SetDecode(svc)
		st.stops = append(st.stops, svc.Shutdown)
	}
	h := srv.Handler()
	if tr != nil {
		h = tapHandler(tr, spanHandler, h)
	}
	st.base, err = st.listen(h)
	return st, err
}

// startCluster starts one worker per shard and dials a router over
// them (one replica each, wire v2, no hedging).
func (st *stack) startCluster(m *model) (*cluster.Router, error) {
	shardMap := make([][]string, len(m.shards))
	shardOf := map[string]int32{} // worker host:port → shard
	for i, sh := range m.shards {
		w, err := cluster.NewWorker(sh)
		if err != nil {
			return nil, err
		}
		h := w.Handler()
		if st.tr != nil {
			h = tapHandler(st.tr, spanWorker, h)
		}
		url, err := st.listen(h)
		if err != nil {
			return nil, err
		}
		shardMap[i] = []string{url}
		shardOf[strings.TrimPrefix(url, "http://")] = int32(i)
	}
	rc := cluster.RouterConfig{ShardMap: shardMap}
	if st.tr != nil {
		// Same pooled transport as the router's default, timed.
		rc.Client = &http.Client{Transport: &transportTap{
			t: st.tr, inner: &http.Transport{MaxIdleConnsPerHost: 64}, shardOf: shardOf,
		}}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	router, err := cluster.Dial(ctx, rc)
	if err != nil {
		return nil, err
	}
	st.stops = append(st.stops, router.Close)
	return router, nil
}
