// Command enmc-shard is one cluster shard worker: it owns a
// contiguous row-slice of the class space (shard -shard-index of
// -shard-count), screens it with its rows of the model's screener,
// and serves the compact shard API the enmc-serve cluster router
// scatter-gathers over (see internal/cluster).
//
// Usage:
//
//	enmc-train -classifier cls.bin -features feats.bin -registry ./models -version v1
//	enmc-shard -model-root ./models -shard-index 0 -shard-count 3
//
// The worker only loads a model; it never trains one. It reads the
// GLOBAL model from the registry, the version's classifier and its
// published screener (-model-version pins it; default newest), and
// keeps rows [off,end) of both (distributed.ShardOne): every worker
// in a cluster holds exactly the rows an in-process
// distributed.ShardClassifier split of the same model gives it, so
// the router's merged top-k matches single-node classification at a
// full budget. It advertises the manifest version in every shard
// reply so the router can surface version skew during a rolling
// per-shard update. enmc-train -demo writes a demo classifier and
// feature file to publish a demo version from.
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
	"enmc/internal/distributed"
	"enmc/internal/registry"
	"enmc/internal/telemetry"
	"enmc/internal/tensor"
)

// readyGrace bounds how long a draining worker keeps its listener
// open waiting for a /readyz probe to see the 503: two of the router's
// default 500 ms probe periods.
const readyGrace = time.Second

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stderr, sig, nil); err != nil {
		fmt.Fprintln(os.Stderr, "enmc-shard:", err)
		os.Exit(1)
	}
}

// run is the whole worker: it parses args, serves until a signal
// arrives on sig, drains, and returns once every listener and
// goroutine it started is gone. Logs and request logs go to stderr.
// listening, when non-nil, is called with the bound worker and debug
// addresses (debug "" without -debug-addr) once both accept
// connections.
func run(args []string, stderr io.Writer, sig <-chan os.Signal, listening func(api, debug string)) error {
	fs := flag.NewFlagSet("enmc-shard", flag.ExitOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":9090", "listen address")
	debugAddr := fs.String("debug-addr", "", "pprof/expvar/metrics listen address (empty: disabled)")

	shardIndex := fs.Int("shard-index", 0, "this worker's shard (row-slice) index")
	shardCount := fs.Int("shard-count", 1, "total shards in the cluster")

	modelRoot := fs.String("model-root", "", "versioned model registry root (classifier + screener from the registry; required)")
	modelVersion := fs.String("model-version", "", "registry version to serve (default newest)")

	logRequests := fs.Bool("log-requests", false, "emit one structured request-log record per shard RPC on stderr")
	logJSON := fs.Bool("log-json", false, "request log as JSON lines (implies -log-requests; default: text)")
	slowLog := fs.Duration("slow-log", 250*time.Millisecond, "request-log slow threshold: requests above this log at WARN")

	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown bound")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits here

	if *modelRoot == "" {
		return errors.New("no model to serve: give -model-root " +
			"(enmc-train -registry publishes a version; enmc-train -demo writes a demo classifier and features)")
	}
	logger := log.New(stderr, "", log.LstdFlags)
	shard, err := loadShard(*modelRoot, *modelVersion, *shardCount, *shardIndex)
	if err != nil {
		return err
	}
	if s := tensor.HugePageSummary(shard.Classifier.W.Data); s != "" {
		logger.Printf("classifier weights: %s", s)
	}

	worker, err := cluster.NewWorker(shard)
	if err != nil {
		return err
	}
	if *logRequests || *logJSON {
		worker.SetRequestLog(telemetry.NewRequestLog(stderr, telemetry.RequestLogOptions{
			JSON: *logJSON,
			Slow: *slowLog,
		}))
	}

	var dbg string
	if *debugAddr != "" {
		var stop func()
		if dbg, stop, err = telemetry.ServeDebug(*debugAddr); err != nil {
			return err
		}
		defer stop()
		logger.Printf("debug endpoint on http://%s", dbg)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// probed closes once a /readyz has answered 503: some prober has
	// seen the drain, so the listener may go.
	probed := make(chan struct{})
	var probedOnce sync.Once
	handler := worker.Handler()
	httpSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			handler.ServeHTTP(w, r)
			return
		}
		sr := &telemetry.StatusRecorder{ResponseWriter: w}
		handler.ServeHTTP(sr, r)
		if sr.Status() == http.StatusServiceUnavailable {
			probedOnce.Do(func() { close(probed) })
		}
	})}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	info := worker.Info()
	logger.Printf("shard %d/%d serving rows [%d,%d) of %d dims on %s (version %q)",
		*shardIndex, *shardCount, info.Offset, info.Offset+info.Classes, info.Hidden, ln.Addr(), shard.Version)
	if listening != nil {
		listening(ln.Addr().String(), dbg)
	}

	select {
	case err := <-serveErr:
		return err
	case got := <-sig:
		logger.Printf("%s: draining (readiness down)", got)
	}
	worker.Drain()
	select {
	case <-probed:
	case <-time.After(readyGrace):
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	logger.Printf("drained cleanly")
	return nil
}

// loadShard slices this worker's rows out of a registry version's
// classifier and published screener.
func loadShard(modelRoot, modelVersion string, n, i int) (distributed.Shard, error) {
	store, err := registry.Open(modelRoot)
	if err != nil {
		return distributed.Shard{}, err
	}
	if modelVersion == "" {
		latest, err := store.Latest()
		if err != nil {
			return distributed.Shard{}, err
		}
		modelVersion = latest.Version
	}
	loaded, err := store.Load(modelVersion)
	if err != nil {
		return distributed.Shard{}, err
	}
	sh, err := distributed.ShardOne(loaded.Classifier, loaded.Screener, n, i)
	sh.Version = loaded.Manifest.Version
	return sh, err
}
