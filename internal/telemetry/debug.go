package telemetry

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// SpansHandler serves the global tracer's recorded spans as Chrome
// trace-event JSON (load in Perfetto / chrome://tracing). With
// ?drain=1 the exported spans are cleared after the copy, so a
// long-lived server can be captured repeatedly without unbounded
// growth. 404 when no global tracer is installed.
func SpansHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := Global()
		if !tr.Enabled() {
			http.Error(w, "tracing disabled (no global tracer)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := tr.WriteChromeTrace(w); err != nil {
			return
		}
		if r.URL.Query().Get("drain") != "" {
			tr.Clear()
		}
	})
}

// ServeDebug starts an HTTP server on addr exposing:
//
//	/debug/pprof/*  — net/http/pprof profiles
//	/debug/vars     — the standard library's expvar (memstats, cmdline)
//	/debug/spans    — global tracer as Chrome trace JSON (?drain=1)
//	/metrics        — the default registry in Prometheus text format,
//	                  after running this call's collect hooks
//
// Each call serves its own mux, so two debug servers in one process
// each run their own collectors. It returns the bound address (useful
// with ":0") once the listener is live, and a stop function that closes
// the listener and its connections and waits for the server goroutine.
func ServeDebug(addr string, collect ...func()) (bound string, stop func(), err error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/debug/spans", SpansHandler())
	mux.Handle("/metrics", PrometheusHandler(Default(), collect...))

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: debug listener: %w", err)
	}
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // ErrServerClosed once stop runs
	}()
	return ln.Addr().String(), func() {
		_ = srv.Close() // the listener and connections are all it owns
		<-done
	}, nil
}
