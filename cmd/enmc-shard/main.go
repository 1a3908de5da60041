// Command enmc-shard is one cluster shard worker: it owns a
// contiguous row-slice of the class space (shard -shard-index of
// -shard-count), screens it locally with its own approximate
// screener, and serves the compact shard API the enmc-serve cluster
// router scatter-gathers over (see internal/cluster).
//
// Usage:
//
//	enmc-shard -shard-index 0 -shard-count 3                    # demo model
//	enmc-shard -model-root ./models -shard-index 1 -shard-count 3
//	enmc-shard -classifier cls.bin -features feats.bin -shard-index 2 -shard-count 3
//
// The worker loads (or trains) the GLOBAL model, slices its own rows
// out of it, and trains the shard-local screener with an
// offset-derived seed — so every worker in a cluster derives
// bit-identical shard parameters to an in-process
// distributed.ShardClassifier split of the same model, and the
// router's merged top-k matches single-node classification.
//
// With -model-root the classifier (and held-out probe features, used
// for screener distillation unless -features overrides them) come
// from the PR-4 versioned registry; the manifest version is
// advertised in every shard reply so the router can surface version
// skew during a rolling per-shard update.
//
// Endpoints: POST /v1/shard/screen, GET /v1/shard/info, GET /v1/slo,
// GET /metrics (Prometheus text), GET /healthz, GET /readyz. A screen
// request carrying X-Enmc-Trace-Id/X-Enmc-Span-Id headers records its
// pipeline spans into a per-request tracer and returns them inline in
// the reply for the router to rebase into one distributed capture. SIGINT/SIGTERM fails readiness first (the
// router's probe loop ejects this replica), then drains in-flight
// screens and exits.
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
	"enmc/internal/distributed"
	"enmc/internal/quant"
	"enmc/internal/registry"
	"enmc/internal/telemetry"
	"enmc/internal/workload"
)

func main() {
	addr := flag.String("addr", ":9090", "listen address")
	portFile := flag.String("port-file", "", "write the bound port here once listening (for scripts with -addr :0)")
	debugAddr := flag.String("debug-addr", "", "pprof/expvar/metrics listen address (empty: disabled)")

	shardIndex := flag.Int("shard-index", 0, "this worker's shard (row-slice) index")
	shardCount := flag.Int("shard-count", 1, "total shards in the cluster")

	clsPath := flag.String("classifier", "", "serialized GLOBAL classifier (SaveClassifier format)")
	featPath := flag.String("features", "", "features for shard screener training (WriteFeatures format)")
	modelRoot := flag.String("model-root", "", "versioned model registry root (classifier + probe from the registry)")
	modelVersion := flag.String("model-version", "", "registry version to serve (default newest)")
	label := flag.String("label", "", "model version label advertised in shard replies (non-registry mode)")

	logRequests := flag.Bool("log-requests", false, "emit one structured request-log record per shard RPC on stderr")
	logJSON := flag.Bool("log-json", false, "request log as JSON lines (implies -log-requests; default: text)")
	slowLog := flag.Duration("slow-log", 250*time.Millisecond, "request-log slow threshold: requests above this log at WARN")

	demoClasses := flag.Int("demo-classes", 4096, "demo model: class count")
	demoDim := flag.Int("demo-dim", 128, "demo model: hidden dimension")
	demoSeed := flag.Uint64("demo-seed", 7, "demo model: generation/training seed")
	epochs := flag.Int("epochs", 4, "shard screener distillation epochs")
	bits := flag.Int("bits", 4, "shard screening precision: 2, 4 or 8")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown bound")
	flag.Parse()

	cls, feats, version := loadGlobal(*clsPath, *featPath, *modelRoot, *modelVersion,
		*demoClasses, *demoDim, *demoSeed)
	if *label != "" {
		version = *label
	}

	shard, err := distributed.ShardOne(cls, *shardCount, *shardIndex, feats, core.Config{
		Hidden:    cls.Hidden(),
		Reduced:   cls.Hidden() / 4,
		Precision: quant.Bits(*bits),
		Seed:      *demoSeed,
	}, core.TrainOptions{Epochs: *epochs, Seed: *demoSeed + 1})
	fatalIf(err)
	shard.Version = version

	worker, err := cluster.NewWorker(shard)
	fatalIf(err)
	if *logRequests || *logJSON {
		worker.SetRequestLog(telemetry.NewRequestLog(os.Stderr, telemetry.RequestLogOptions{
			JSON: *logJSON,
			Slow: *slowLog,
		}))
	}

	if *debugAddr != "" {
		dbg, err := telemetry.ServeDebug(*debugAddr)
		fatalIf(err)
		log.Printf("debug endpoint on http://%s", dbg)
	}

	ln, err := net.Listen("tcp", *addr)
	fatalIf(err)
	if *portFile != "" {
		port := ln.Addr().(*net.TCPAddr).Port
		fatalIf(os.WriteFile(*portFile, []byte(strconv.Itoa(port)+"\n"), 0o644))
	}
	httpSrv := &http.Server{Handler: worker.Handler()}
	go func() {
		info := worker.Info()
		log.Printf("shard %d/%d serving rows [%d,%d) of %d dims on %s (version %q)",
			*shardIndex, *shardCount, info.Offset, info.Offset+info.Classes, info.Hidden, ln.Addr(), version)
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	log.Printf("%s: draining (readiness down)", got)
	worker.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
		os.Exit(1)
	}
	log.Printf("drained cleanly")
}

// loadGlobal resolves the global model this worker slices: registry
// version, explicit files, or a trained demo instance.
func loadGlobal(clsPath, featPath, modelRoot, modelVersion string, classes, dim int, seed uint64) (*core.Classifier, [][]float32, string) {
	var feats [][]float32
	if featPath != "" {
		f, err := os.Open(featPath)
		fatalIf(err)
		fs, err := core.ReadFeatures(f)
		fatalIf(err)
		fatalIf(f.Close())
		feats = fs
	}

	if modelRoot != "" {
		store, err := registry.Open(modelRoot)
		fatalIf(err)
		if modelVersion == "" {
			latest, err := store.Latest()
			fatalIf(err)
			modelVersion = latest.Version
		}
		loaded, err := store.Load(modelVersion)
		fatalIf(err)
		if feats == nil {
			feats = loaded.Probe
		}
		if len(feats) == 0 {
			fatalIf(fmt.Errorf("version %q ships no probe features; pass -features for shard screener training", modelVersion))
		}
		return loaded.Classifier, feats, loaded.Manifest.Version
	}

	if clsPath != "" {
		f, err := os.Open(clsPath)
		fatalIf(err)
		cls, err := core.ReadClassifier(f)
		fatalIf(err)
		fatalIf(f.Close())
		if len(feats) == 0 {
			fatalIf(fmt.Errorf("need -features alongside -classifier for shard screener training"))
		}
		return cls, feats, ""
	}

	log.Printf("no -classifier/-model-root given: training a %d×%d demo model", classes, dim)
	inst := workload.Generate(
		workload.Spec{Name: "shard-demo", Categories: classes, Hidden: dim, LatentRank: 32, ZipfS: 1.05},
		workload.GenOptions{Seed: seed, Train: 512, Valid: 32, Test: 32})
	return inst.Classifier, inst.Train, ""
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
