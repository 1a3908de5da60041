// Command enmc-serve exposes ENMC classification as an HTTP/JSON
// service with dynamic micro-batching, bounded admission (429 +
// Retry-After past the queue cap), and graceful degradation of the
// screening budget under load (see internal/server).
//
// Usage:
//
//	enmc-serve                             # demo model, :8080
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
//	enmc-serve -decode                     # streaming autoregressive
//	                                       # decode sessions on
//	                                       # POST /v1/decode (SSE/NDJSON)
//	enmc-serve -tenants tenants.json       # multi-tenant QoS: API-key
//	                                       # identity, per-tenant quotas,
//	                                       # weighted-fair classes,
//	                                       # pinned model versions
//
// Endpoints: POST /v1/classify, POST /v1/classify_batch, POST
// /v1/decode (with -decode), GET /v1/model, POST /v1/model/reload,
// GET /v1/slo, GET /v1/tenants, GET /metrics (Prometheus text), GET
// /healthz, GET /readyz.
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
// a candidate whose top-K agreement with the serving model on the
// held-out probe set falls below -canary-floor is rejected and the
// current version keeps serving (automatic rollback).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"enmc/internal/cluster"
	"enmc/internal/core"
	"enmc/internal/decode"
	"enmc/internal/quant"
	"enmc/internal/registry"
	"enmc/internal/server"
	"enmc/internal/telemetry"
	"enmc/internal/tenant"
	"enmc/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	debugAddr := flag.String("debug-addr", "", "pprof/expvar/metrics listen address (empty: disabled)")
	debugPortFile := flag.String("debug-port-file", "", "write the debug listener's bound port here (for scripts with -debug-addr :0)")
	portFile := flag.String("port-file", "", "write the bound port here once listening (for scripts with -addr :0)")

	traceOn := flag.Bool("trace", false, "install a global tracer: per-request spans, trace-context propagation to cluster shards, /debug/spans export on the debug listener")
	logRequests := flag.Bool("log-requests", false, "emit one structured request-log record per /v1/* request on stderr")
	logJSON := flag.Bool("log-json", false, "request log as JSON lines (implies -log-requests; default: text)")
	slowLog := flag.Duration("slow-log", 250*time.Millisecond, "request-log slow threshold: requests above this log at WARN")
	sloWindow := flag.Duration("slo-window", 5*time.Minute, "SLO rolling window")
	sloAvail := flag.Float64("slo-availability", 0.999, "SLO availability objective (fraction of requests that must not 5xx)")
	sloLatency := flag.Duration("slo-latency", 250*time.Millisecond, "SLO latency objective")
	sloLatencyTarget := flag.Float64("slo-latency-target", 0.99, "fraction of requests that must beat -slo-latency")

	clsPath := flag.String("classifier", "", "serialized classifier (SaveClassifier format)")
	scrPath := flag.String("screener", "", "serialized screener (SaveScreener format)")
	featPath := flag.String("features", "", "serialized features to train the screener from when -screener is absent (WriteFeatures format)")

	clusterMap := flag.String("cluster", "", "route to networked enmc-shard workers: replica URLs comma-separated, shards semicolon-separated (e.g. 'h1:9090,h2:9090;h3:9091,h4:9091')")
	clusterTimeout := flag.Duration("cluster-timeout", 2*time.Second, "per-attempt shard RPC timeout")
	clusterAttempts := flag.Int("cluster-attempts", 0, "attempts per shard per query incl. failover (default: one per replica, min 2)")
	clusterHedge := flag.Duration("cluster-hedge", 0, "hedge a shard RPC onto another replica after this delay (0 disables)")
	clusterHealthEvery := flag.Duration("cluster-health-interval", 500*time.Millisecond, "per-replica /readyz probe period")

	modelRoot := flag.String("model-root", "", "versioned model registry root (enables hot swap + /v1/model/reload)")
	modelVersion := flag.String("model-version", "", "registry version to serve at startup (default newest)")
	canaryFloor := flag.Float64("canary-floor", 0.9, "reject a reload whose probe top-K agreement falls below this (negative: disable)")
	canaryTopK := flag.Int("canary-topk", 5, "K for the canary top-K agreement")
	canaryProbe := flag.String("canary-probe", "", "probe feature file (WriteFeatures format; default: version's shipped probe)")

	demoClasses := flag.Int("demo-classes", 4096, "demo model: class count")
	demoDim := flag.Int("demo-dim", 128, "demo model: hidden dimension")
	demoSeed := flag.Uint64("demo-seed", 7, "demo model: generation/training seed")
	epochs := flag.Int("epochs", 4, "screener distillation epochs")
	bits := flag.Int("bits", 4, "screening precision: 2, 4 or 8")

	decodeOn := flag.Bool("decode", false, "enable streaming autoregressive decode sessions on POST /v1/decode")
	decodeMaxSessions := flag.Int("decode-max-sessions", 256, "decode session cap (429 past this)")
	decodeTTL := flag.Duration("decode-ttl", time.Minute, "idle decode sessions are evicted after this")
	decodeDeadline := flag.Duration("decode-deadline", 0, "per-token latency budget: the screening budget m degrades toward the floor before missing it (0: off)")
	decodeMaxLen := flag.Int("decode-maxlen", 64, "decode sequence length cap")
	decodeSeed := flag.Uint64("decode-seed", 1, "decoder dynamics seed")
	decodeWidth := flag.Int("decode-width", 8, "maximum beam width")
	decodeCache := flag.Int("decode-cache", 0, "candidate-cache slots per session (0: no cache, gather from the classifier)")
	decodeVerify := flag.Int("decode-verify-every", 64, "exact-recompute cache verification period in steps (negative: off)")

	tenantsPath := flag.String("tenants", "", "tenant config JSON (multi-tenant QoS: API keys, classes, quotas, pins; SIGHUP re-reads)")
	shedFrac := flag.Float64("shed-frac", 0.75, "higher-class queue fraction past which lower classes are shed at admission")

	maxBatch := flag.Int("max-batch", 32, "micro-batch flush size")
	maxDelay := flag.Duration("max-delay", 2*time.Millisecond, "micro-batch flush delay")
	queueCap := flag.Int("queue-cap", 256, "admission queue bound (429 past this)")
	flushWorkers := flag.Int("flush-workers", 2, "concurrent batch flushes")
	topM := flag.Int("m", 0, "screening budget TopM (default classes/64)")
	mFloor := flag.Int("m-floor", 0, "degradation floor for TopM (default TopM/4)")
	watermark := flag.Float64("watermark", 0.5, "queue-depth fraction where degradation starts")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound")
	flag.Parse()

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
		fatalIf(err)
		dialCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		router, err = cluster.Dial(dialCtx, cluster.RouterConfig{
			ShardMap:       shardMap,
			Timeout:        *clusterTimeout,
			MaxAttempts:    *clusterAttempts,
			HedgeAfter:     *clusterHedge,
			HealthInterval: *clusterHealthEvery,
		})
		cancel()
		fatalIf(err)
		defer router.Close()
		log.Printf("cluster router: %d shards, %d classes (version %q)",
			router.Shards(), router.Categories(), router.ModelVersion())
		backend = router
	} else if *modelRoot != "" {
		store, err := registry.Open(*modelRoot)
		fatalIf(err)
		var probe [][]float32
		if *canaryProbe != "" {
			f, err := os.Open(*canaryProbe)
			fatalIf(err)
			probe, err = core.ReadFeatures(f)
			fatalIf(err)
			fatalIf(f.Close())
		}
		mgr, err = registry.NewManager(store, *modelVersion, registry.Options{
			ProbeTopK:      *canaryTopK,
			AgreementFloor: *canaryFloor,
			Probe:          probe,
			Logf:           log.Printf,
		})
		fatalIf(err)
		backend = mgr.Swappable()
	} else {
		localCls, localScr = buildModel(*clsPath, *scrPath, *featPath, *demoClasses, *demoDim, *demoSeed, *epochs, *bits)
		local, err := server.NewLocal(localCls, localScr)
		fatalIf(err)
		backend = local
	}

	var tenants *tenant.Resolver
	if *tenantsPath != "" {
		var err error
		tenants, err = tenant.LoadResolver(*tenantsPath)
		fatalIf(err)
		names := tenants.Tenants()
		log.Printf("tenant config: %d tenants from %s", len(names), *tenantsPath)
	}

	var reqLog *telemetry.RequestLog
	if *logRequests || *logJSON {
		reqLog = telemetry.NewRequestLog(os.Stderr, telemetry.RequestLogOptions{
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
		MaxDelay:      *maxDelay,
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
		log.Fatal(err)
	}
	if mgr != nil {
		srv.SetReloader(mgr.Reload)
	}

	var decodeSvc *decode.Service
	if *decodeOn {
		dcfg := decode.Config{
			MaxSessions: *decodeMaxSessions,
			TTL:         *decodeTTL,
			TokenBudget: *decodeDeadline,
			TopM:        *topM,
			MFloor:      *mFloor,
			MaxWidth:    *decodeWidth,
		}
		switch {
		case mgr != nil:
			fatalIf(fmt.Errorf("-decode is not supported with -model-root (hot swap would invalidate session state)"))
		case router != nil:
			// The decoder dynamics need the classifier rows, which a
			// router never holds — regenerate the demo model the workers
			// were sharded from. Generate's RNG depends only on the seed,
			// so matching -demo-* flags reproduce the workers' classifier
			// bit-for-bit.
			if router.Categories() != *demoClasses || router.Hidden() != *demoDim {
				fatalIf(fmt.Errorf("-decode over -cluster: router serves %d×%d but -demo-classes/-demo-dim say %d×%d; point the demo flags at the cluster's model",
					router.Categories(), router.Hidden(), *demoClasses, *demoDim))
			}
			inst := workload.Generate(
				workload.Spec{Name: "serve-demo", Categories: *demoClasses, Hidden: *demoDim, LatentRank: 32, ZipfS: 1.05},
				workload.GenOptions{Seed: *demoSeed, Train: 1, Valid: 1, Test: 1})
			dec := workload.NewDecoderFor(inst.Classifier, *decodeSeed, *decodeMaxLen)
			decodeSvc = decode.NewService(dcfg, dec, func() decode.Scorer { return router.NewDecodeScorer() })
			log.Printf("decode sessions enabled over the cluster (per-token scatter, session affinity)")
		default:
			if localCls == nil || localScr == nil {
				fatalIf(fmt.Errorf("-decode needs a local classifier+screener"))
			}
			dec := workload.NewDecoderFor(localCls, *decodeSeed, *decodeMaxLen)
			decodeSvc = decode.NewService(dcfg, dec, func() decode.Scorer {
				return decode.NewLocalScorer(localCls, localScr, decode.LocalScorerConfig{
					CacheSlots:  *decodeCache,
					VerifyEvery: *decodeVerify,
				})
			})
			log.Printf("decode sessions enabled (local scorer, candidate cache)")
		}
		srv.SetDecode(decodeSvc)
	}

	if *debugAddr != "" {
		dbg, err := telemetry.ServeDebugWith(*debugAddr, func() {
			slo.Publish(telemetry.Default())
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("debug endpoint on http://%s (pprof, /metrics, /debug/vars, /debug/spans)", dbg)
		if *debugPortFile != "" {
			_, dbgPort, err := net.SplitHostPort(dbg)
			fatalIf(err)
			fatalIf(os.WriteFile(*debugPortFile, []byte(dbgPort+"\n"), 0o644))
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	if *portFile != "" {
		port := ln.Addr().(*net.TCPAddr).Port
		fatalIf(os.WriteFile(*portFile, []byte(strconv.Itoa(port)+"\n"), 0o644))
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() {
		log.Printf("serving %d classes × %d dims on %s (queue=%d batch=%d/%s)",
			backend.Categories(), backend.Hidden(), ln.Addr(), *queueCap, *maxBatch, *maxDelay)
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	for {
		got := <-sig
		if got == syscall.SIGHUP {
			// SIGHUP = "re-read config": the tenant file (quotas, keys,
			// pins — zero dropped in-flight requests, bad config keeps
			// the previous generation serving) and, with -model-root,
			// the newest model version. A failed canary or load keeps
			// the current version serving — rollback is the default,
			// not an action.
			if tenants != nil {
				if err := tenants.Reload(); err != nil {
					log.Printf("SIGHUP tenant reload failed (previous config still serving): %v", err)
				} else {
					log.Printf("SIGHUP tenant reload: %d tenants", len(tenants.Tenants()))
				}
			}
			if mgr == nil {
				if tenants == nil {
					log.Printf("SIGHUP: no -model-root or -tenants configured, ignoring")
				}
				continue
			}
			go func() {
				active, err := mgr.Reload(context.Background(), "")
				if err != nil {
					log.Printf("SIGHUP reload failed (still serving %q): %v", active, err)
					return
				}
				log.Printf("SIGHUP reload: serving %q", active)
			}()
			continue
		}
		log.Printf("%s: draining (readiness down, intake stopped)", got)
		break
	}
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
		os.Exit(1)
	}
	if decodeSvc != nil {
		// After Shutdown returns every in-flight stream has completed;
		// new sessions were already refused once draining began.
		decodeSvc.Shutdown()
	}
	log.Printf("drained cleanly")
}

// buildModel loads the classifier/screener pair from disk, or trains
// a synthetic demo pair when no paths are given.
func buildModel(clsPath, scrPath, featPath string, classes, dim int, seed uint64, epochs, bits int) (*core.Classifier, *core.Screener) {
	if clsPath != "" {
		f, err := os.Open(clsPath)
		fatalIf(err)
		cls, err := core.ReadClassifier(f)
		fatalIf(err)
		fatalIf(f.Close())
		var scr *core.Screener
		if scrPath != "" {
			g, err := os.Open(scrPath)
			fatalIf(err)
			scr, err = core.ReadScreener(g)
			fatalIf(err)
			fatalIf(g.Close())
		}
		if scr == nil {
			if featPath == "" {
				fatalIf(fmt.Errorf("need -screener or -features alongside -classifier"))
			}
			h, err := os.Open(featPath)
			fatalIf(err)
			feats, err := core.ReadFeatures(h)
			fatalIf(err)
			fatalIf(h.Close())
			scr = train(cls, feats, bits, epochs, seed)
		}
		return cls, scr
	}

	log.Printf("no -classifier given: training a %d×%d demo model", classes, dim)
	inst := workload.Generate(
		workload.Spec{Name: "serve-demo", Categories: classes, Hidden: dim, LatentRank: 32, ZipfS: 1.05},
		workload.GenOptions{Seed: seed, Train: 512, Valid: 32, Test: 32})
	return inst.Classifier, train(inst.Classifier, inst.Train, bits, epochs, seed)
}

func train(cls *core.Classifier, feats [][]float32, bits, epochs int, seed uint64) *core.Screener {
	scr, _, err := core.TrainScreener(cls, feats, core.Config{
		Categories: cls.Categories(),
		Hidden:     cls.Hidden(),
		Reduced:    cls.Hidden() / 4,
		Precision:  quant.Bits(bits),
		Seed:       seed,
	}, core.TrainOptions{Epochs: epochs, Seed: seed + 1})
	fatalIf(err)
	return scr
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
