// Command enmc-serve exposes ENMC classification as an HTTP/JSON
// service with dynamic micro-batching, bounded admission (429 +
// Retry-After past the queue cap), and graceful degradation of the
// screening budget under load (see internal/server).
//
// Usage:
//
//	enmc-serve -classifier cls.bin -screener scr.bin -addr :8080
//	enmc-serve -model-root ./models        # versioned registry + hot swap
//	enmc-serve -cluster "h1:9090,h2:9090;h3:9091,h4:9091"
//	                                       # scatter-gather router over
//	                                       # networked enmc-shard workers
//	                                       # (replicas ','-separated,
//	                                       # shards ';'-separated)
//	enmc-serve -debug-addr :6060           # pprof + /metrics sidecar
//	enmc-serve -trace -log-json            # distributed tracing +
//	                                       # JSON request log on stderr
//	enmc-serve -classifier cls.bin -screener scr.bin -decode
//	                                       # streaming autoregressive
//	                                       # decode sessions on
//	                                       # POST /v1/decode (SSE/NDJSON)
//	enmc-serve -cluster "..." -classifier cls.bin -decode
//	                                       # decode over the cluster; the
//	                                       # decoder reads the cluster
//	                                       # model's classifier rows
//	enmc-serve -tenants tenants.json       # multi-tenant QoS: API-key
//	                                       # identity, per-tenant quotas,
//	                                       # weighted-fair classes,
//	                                       # pinned model versions
//
// The server only loads a model; it never trains one. enmc-train
// distills the screener once, offline (enmc-train -demo writes a demo
// classifier and feature file to try the flow on):
//
//	enmc-train -demo
//	enmc-train -classifier demo-cls.bin -features demo-feats.bin -out demo-scr.bin
//	enmc-serve -classifier demo-cls.bin -screener demo-scr.bin
//
// Endpoints: POST /v1/classify, POST /v1/classify_batch, POST
// /v1/decode (with -decode), GET /v1/model, POST /v1/model/reload,
// GET /v1/slo, GET /v1/tenants, GET /metrics (Prometheus text), GET
// /healthz, GET /readyz. Both classify endpoints are admitted into the
// same micro-batching queue: a caller batch of n items is one queue
// entry that counts n toward -queue-cap, so a batch larger than
// -queue-cap is refused (400).
//
// With -tenants the server resolves the X-Enmc-Api-Key header against
// an on-disk tenant config: each tenant gets a QoS class
// (interactive/standard/batch) scheduled by deficit-round-robin, a
// token-bucket rate quota (429 + real refill Retry-After), an optional
// concurrent decode-session cap, and an optional pinned model version
// (served alongside the active version when -model-root is set).
// SIGHUP re-reads the tenant config with zero dropped in-flight
// requests — a bad config keeps the previous one serving.
// SIGINT/SIGTERM triggers the graceful sequence: readiness fails,
// intake stops (503), the queue drains, then the listener shuts down.
//
// With -model-root the server serves from a versioned model registry
// (internal/registry): the initial version loads at startup
// (-model-version pins it; default newest), and SIGHUP or POST
// /v1/model/reload hot-swaps to a new version behind a canary gate —
// a candidate whose screened recall@5 at the served m (-m) against its
// own full classifier, on the held-out probe set, falls below
// -canary-floor × the serving model's is rejected and the current
// version keeps serving (automatic rollback).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"enmc/internal/cluster"
	"enmc/internal/core"
	"enmc/internal/decode"
	"enmc/internal/registry"
	"enmc/internal/server"
	"enmc/internal/telemetry"
	"enmc/internal/tenant"
	"enmc/internal/tensor"
	"enmc/internal/workload"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	if err := run(os.Args[1:], os.Stderr, sig, nil); err != nil {
		fmt.Fprintln(os.Stderr, "enmc-serve:", err)
		os.Exit(1)
	}
}

// run is the whole server: it parses args, serves until SIGINT or
// SIGTERM arrives on sig (SIGHUP re-reads the configuration), drains,
// and returns once every listener and goroutine it started is gone.
// Logs and request logs go to stderr. listening, when non-nil, is
// called with the bound API and debug addresses (debug "" without
// -debug-addr) once both accept connections.
func run(args []string, stderr io.Writer, sig <-chan os.Signal, listening func(api, debug string)) error {
	fs := flag.NewFlagSet("enmc-serve", flag.ExitOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	debugAddr := fs.String("debug-addr", "", "pprof/expvar/metrics listen address (empty: disabled)")

	traceOn := fs.Bool("trace", false, "install a global tracer: per-request spans, trace-context propagation to cluster shards, /debug/spans export on the debug listener")
	logRequests := fs.Bool("log-requests", false, "emit one structured request-log record per /v1/* request on stderr")
	logJSON := fs.Bool("log-json", false, "request log as JSON lines (implies -log-requests; default: text)")
	slowLog := fs.Duration("slow-log", 250*time.Millisecond, "request-log slow threshold: requests above this log at WARN")
	sloWindow := fs.Duration("slo-window", 5*time.Minute, "SLO rolling window")
	sloAvail := fs.Float64("slo-availability", 0.999, "SLO availability objective (fraction of requests that must not 5xx)")
	sloLatency := fs.Duration("slo-latency", 250*time.Millisecond, "SLO latency objective")
	sloLatencyTarget := fs.Float64("slo-latency-target", 0.99, "fraction of requests that must beat -slo-latency")

	clsPath := fs.String("classifier", "", "serialized classifier (SaveClassifier format); with -cluster -decode, the cluster model's classifier the decoder reads")
	scrPath := fs.String("screener", "", "serialized screener (SaveScreener format)")

	clusterMap := fs.String("cluster", "", "route to networked enmc-shard workers: replica URLs comma-separated, shards semicolon-separated (e.g. 'h1:9090,h2:9090;h3:9091,h4:9091')")
	clusterTimeout := fs.Duration("cluster-timeout", 2*time.Second, "per-attempt shard RPC timeout (a shard tries every replica once, at least twice in all)")
	clusterHealthEvery := fs.Duration("cluster-health-interval", 500*time.Millisecond, "per-replica /readyz probe period")

	modelRoot := fs.String("model-root", "", "versioned model registry root (enables hot swap + /v1/model/reload)")
	modelVersion := fs.String("model-version", "", "registry version to serve at startup (default newest)")
	canaryFloor := fs.Float64("canary-floor", 0.9, "reject a reload whose screened recall@5 at -m, against its own classifier, falls below this fraction of the serving model's (negative: disable)")

	decodeOn := fs.Bool("decode", false, "enable streaming autoregressive decode sessions on POST /v1/decode")
	decodeMaxSessions := fs.Int("decode-max-sessions", 256, "concurrent decode stream cap (429 past this)")
	decodeDeadline := fs.Duration("decode-deadline", 0, "per-token latency budget: the screening budget m degrades toward the floor before missing it (0: off)")
	decodeMaxLen := fs.Int("decode-maxlen", 64, "decode sequence length cap")
	decodeSeed := fs.Uint64("decode-seed", 1, "decoder dynamics seed")
	decodeWidth := fs.Int("decode-width", 8, "maximum beam width")
	decodeCache := fs.Int("decode-cache", 0, "candidate-cache slots per session (0: no cache, gather from the classifier)")
	decodeVerify := fs.Int("decode-verify-every", 64, "exact-recompute cache verification period in steps (negative: off)")

	tenantsPath := fs.String("tenants", "", "tenant config JSON (multi-tenant QoS: API keys, classes, quotas, pins; SIGHUP re-reads)")
	shedFrac := fs.Float64("shed-frac", 0.75, "higher-class queue fraction past which lower classes are shed at admission")

	maxBatch := fs.Int("max-batch", 32, "most items one micro-batch flush gathers while every flush worker is busy")
	queueCap := fs.Int("queue-cap", 256, "per-class admission queue bound in items (429 past it; also the largest /v1/classify_batch)")
	flushWorkers := fs.Int("flush-workers", 2, "concurrent batch flushes")
	topM := fs.Int("m", 0, "screening budget TopM (default classes/64)")
	mFloor := fs.Int("m-floor", 0, "degradation floor for TopM (default TopM/4)")
	watermark := fs.Float64("watermark", 0.5, "queue-depth fraction where degradation starts")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits here

	if *clusterMap == "" && *modelRoot == "" && (*clsPath == "" || *scrPath == "") {
		return errors.New("no model to serve: give -model-root, -classifier with -screener, or -cluster " +
			"(enmc-train -demo writes a demo classifier and features to train a screener from)")
	}
	logger := log.New(stderr, "", log.LstdFlags)
	if *traceOn {
		// Install before Dial so the cluster router names its process
		// lanes and ships trace contexts on shard RPCs.
		telemetry.SetGlobal(telemetry.NewTracer())
	}

	var backend server.Backend
	var mgr *registry.Manager
	var router *cluster.Router
	var localCls *core.Classifier
	var localScr *core.Screener
	if *clusterMap != "" {
		shardMap, err := cluster.ParseShardMap(*clusterMap)
		if err != nil {
			return err
		}
		dialCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		router, err = cluster.Dial(dialCtx, cluster.RouterConfig{
			ShardMap:       shardMap,
			Timeout:        *clusterTimeout,
			HealthInterval: *clusterHealthEvery,
		})
		cancel()
		if err != nil {
			return err
		}
		defer router.Close()
		logger.Printf("cluster router: %d shards, %d classes (version %q)",
			router.Shards(), router.Categories(), router.ModelVersion())
		backend = router
	} else if *modelRoot != "" {
		store, err := registry.Open(*modelRoot)
		if err != nil {
			return err
		}
		mgr, err = registry.NewManager(store, *modelVersion, registry.Options{
			TopM:        *topM,
			RecallFloor: *canaryFloor,
			Logf:        logger.Printf,
		})
		if err != nil {
			return err
		}
		backend = mgr.Swappable()
	} else {
		var err error
		if localCls, err = readFile(*clsPath, core.ReadClassifier); err != nil {
			return err
		}
		if localScr, err = readFile(*scrPath, core.ReadScreener); err != nil {
			return err
		}
		if s := tensor.HugePageSummary(localCls.W.Data); s != "" {
			logger.Printf("classifier weights: %s", s)
		}
		if backend, err = server.NewLocal(localCls, localScr); err != nil {
			return err
		}
	}

	var tenants *tenant.Resolver
	if *tenantsPath != "" {
		var err error
		if tenants, err = tenant.LoadResolver(*tenantsPath); err != nil {
			return err
		}
		logger.Printf("tenant config: %d tenants from %s", len(tenants.Tenants()), *tenantsPath)
	}

	var reqLog *telemetry.RequestLog
	if *logRequests || *logJSON {
		reqLog = telemetry.NewRequestLog(stderr, telemetry.RequestLogOptions{
			JSON: *logJSON,
			Slow: *slowLog,
		})
	}
	slo := telemetry.NewSLO(telemetry.SLOConfig{
		Window:           *sloWindow,
		Availability:     *sloAvail,
		LatencyObjective: *sloLatency,
		LatencyTarget:    *sloLatencyTarget,
	})

	var pinnedBackend func(string) (server.Backend, error)
	if mgr != nil {
		pinnedBackend = mgr.BackendFor
	}
	srv, err := server.New(backend, server.Config{
		PinnedBackend: pinnedBackend,
		MaxBatch:      *maxBatch,
		QueueCap:      *queueCap,
		FlushWorkers:  *flushWorkers,
		TopM:          *topM,
		MFloor:        *mFloor,
		Watermark:     *watermark,
		ShedFrac:      *shedFrac,
		Tenants:       tenants,
		RequestLog:    reqLog,
		SLO:           slo,
	})
	if err != nil {
		return err
	}
	defer srv.Drain()
	if mgr != nil {
		srv.SetReloader(mgr.Reload)
	}

	if *decodeOn {
		dcfg := decode.Config{
			MaxSessions: *decodeMaxSessions,
			TokenBudget: *decodeDeadline,
			TopM:        *topM,
			MFloor:      *mFloor,
			MaxWidth:    *decodeWidth,
		}
		if dcfg.TopM <= 0 {
			dcfg.TopM = server.DefaultTopM(backend.Categories())
		}
		var decodeSvc *decode.Service
		switch {
		case mgr != nil:
			return fmt.Errorf("-decode is not supported with -model-root (hot swap would invalidate session state)")
		case router != nil:
			// The decoder dynamics need the classifier rows, which a
			// router never holds: read the cluster model's classifier.
			if *clsPath == "" {
				return errors.New("-decode over -cluster needs -classifier: the decoder reads the cluster model's classifier rows")
			}
			cls, err := readFile(*clsPath, core.ReadClassifier)
			if err != nil {
				return err
			}
			if router.Categories() != cls.Categories() || router.Hidden() != cls.Hidden() {
				return fmt.Errorf("-decode over -cluster: router serves %d×%d but -classifier is %d×%d; point it at the cluster's model",
					router.Categories(), router.Hidden(), cls.Categories(), cls.Hidden())
			}
			dec := workload.NewDecoderFor(cls, *decodeSeed, *decodeMaxLen)
			decodeSvc = decode.NewService(dcfg, dec, func() decode.Scorer { return router.NewDecodeScorer() })
			logger.Printf("decode sessions enabled over the cluster (per-token scatter)")
		default:
			dec := workload.NewDecoderFor(localCls, *decodeSeed, *decodeMaxLen)
			decodeSvc = decode.NewService(dcfg, dec, func() decode.Scorer {
				return decode.NewLocalScorer(localCls, localScr, decode.LocalScorerConfig{
					CacheSlots:  *decodeCache,
					VerifyEvery: *decodeVerify,
				})
			})
			logger.Printf("decode sessions enabled (local scorer, %d candidate-cache slots per session)", max(*decodeCache, 0))
		}
		// Runs before the deferred srv.Drain, after the API listener's
		// Shutdown: by then every in-flight stream has completed.
		defer decodeSvc.Shutdown()
		srv.SetDecode(decodeSvc)
	}

	var dbg string
	if *debugAddr != "" {
		var stop func()
		dbg, stop, err = telemetry.ServeDebug(*debugAddr, func() { slo.Publish(telemetry.Default()) })
		if err != nil {
			return err
		}
		defer stop()
		logger.Printf("debug endpoint on http://%s (Prometheus /metrics, /debug/spans, pprof, stdlib /debug/vars)", dbg)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logger.Printf("serving %d classes × %d dims on %s (queue=%d batch=%d)",
		backend.Categories(), backend.Hidden(), ln.Addr(), *queueCap, *maxBatch)
	if listening != nil {
		listening(ln.Addr().String(), dbg)
	}

	// SIGHUP = "re-read config": the tenant file (quotas, keys, pins —
	// zero dropped in-flight requests, bad config keeps the previous
	// generation serving) and, with -model-root, the newest model
	// version. A failed canary or load keeps the current version
	// serving — rollback is the default, not an action.
	var reloads sync.WaitGroup
	defer reloads.Wait()
	for {
		var got os.Signal
		select {
		case err := <-serveErr:
			return err
		case got = <-sig:
		}
		if got != syscall.SIGHUP {
			logger.Printf("%s: draining (readiness down, intake stopped)", got)
			break
		}
		if tenants != nil {
			if err := tenants.Reload(); err != nil {
				logger.Printf("SIGHUP tenant reload failed (previous config still serving): %v", err)
			} else {
				logger.Printf("SIGHUP tenant reload: %d tenants", len(tenants.Tenants()))
			}
		}
		if mgr == nil {
			if tenants == nil {
				logger.Printf("SIGHUP: no -model-root or -tenants configured, ignoring")
			}
			continue
		}
		reloads.Add(1)
		go func() {
			defer reloads.Done()
			active, err := mgr.Reload(context.Background(), "")
			if err != nil {
				logger.Printf("SIGHUP reload failed (still serving %q): %v", active, err)
				return
			}
			logger.Printf("SIGHUP reload: serving %q", active)
		}()
	}
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	logger.Printf("drained cleanly")
	return nil
}

// readFile decodes the model file at path with read.
func readFile[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	v, err := read(f)
	if err != nil {
		return v, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}
