// Command enmc-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	enmc-bench [-run fig13] [-quick] [-seed 42]
//	enmc-bench -quick -trace pipeline.json -metrics -pprof localhost:6060
//
// With no -run filter every experiment executes in paper order.
// -quick shrinks the algorithm-level workloads for a fast smoke run.
//
// Observability: -trace captures the algorithm pipeline (screen /
// select / exact-recompute spans, training epochs) as Chrome
// trace-event JSON via the global tracer; -metrics dumps the
// telemetry registry as JSON to stderr after the run; -pprof serves
// /debug/pprof, /debug/vars and /metrics while the experiments run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"enmc"
	"enmc/internal/experiments"
)

func main() {
	run := flag.String("run", "", "comma-separated experiments to run ("+strings.Join(enmc.ExperimentNames(), ",")+"); empty = all")
	quick := flag.Bool("quick", false, "shrink algorithm-level workloads for a fast smoke run")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	seed := flag.Uint64("seed", 42, "random seed for workload generation")
	traceOut := flag.String("trace", "", "write Chrome trace-event JSON of the algorithm pipeline to this file")
	metrics := flag.Bool("metrics", false, "dump the telemetry registry as JSON to stderr after the run")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof, /debug/vars and Prometheus /metrics on this address (e.g. localhost:6060)")
	flag.Parse()

	if *pprofAddr != "" {
		addr, err := enmc.ServeDebug(*pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/pprof/\n", addr)
	}
	if *metrics {
		enmc.EnableDRAMMetrics()
	}
	var tracer *enmc.Tracer
	if *traceOut != "" {
		tracer = enmc.NewTracer()
		enmc.SetGlobalTracer(tracer)
		defer enmc.SetGlobalTracer(nil)
	}

	qo, po := experiments.Options(*seed, *quick)

	want := map[string]bool{}
	if *run != "" {
		for _, n := range strings.Split(*run, ",") {
			want[strings.TrimSpace(strings.ToLower(n))] = true
		}
	}

	for _, e := range experiments.Registry {
		if len(want) > 0 && !want[e.Name] {
			continue
		}
		start := time.Now()
		t, err := e.Run(qo, po)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
		} else {
			fmt.Println(t)
			fmt.Printf("[%s completed in %v]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
		}
	}

	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := tracer.WriteChromeTrace(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d spans to %s (load in chrome://tracing)\n", tracer.SpanCount(), *traceOut)
	}
	if *metrics {
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		if err := enc.Encode(enmc.MetricsSnapshot()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
