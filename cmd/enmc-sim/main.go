// Command enmc-sim runs one cycle-level system simulation of a
// classification offload and prints timing, traffic and energy.
//
// Usage:
//
//	enmc-sim -design enmc -l 670091 -d 512 -batch 4
//	enmc-sim -design tensordimm -full -l 1000000 -d 512
//	enmc-sim -trace out.json -metrics -json
//
// Designs: enmc, tensordimm, tensordimm-large, nda, chameleon.
//
// Observability:
//
//	-trace out.json  write the representative rank's execution as
//	                 Chrome trace-event JSON (chrome://tracing, Perfetto)
//	-metrics         dump the telemetry registry (incl. DRAM command
//	                 counters) as JSON to stderr after the run
//	-pprof addr      serve /debug/pprof, /debug/vars and /metrics on addr
//	-json            emit the full SimResult as JSON instead of text
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"enmc"
)

func main() {
	design := flag.String("design", "enmc", "NMP design: enmc, tensordimm, tensordimm-large, nda, chameleon")
	l := flag.Int("l", 267744, "categories")
	d := flag.Int("d", 512, "hidden dimension")
	k := flag.Int("k", 0, "reduced dimension (default d/4)")
	m := flag.Int("m", 0, "candidates per inference (default l/50)")
	batch := flag.Int("batch", 1, "batch size")
	sigmoid := flag.Bool("sigmoid", false, "multi-label (sigmoid) output")
	full := flag.Bool("full", false, "full classification instead of approximate screening")
	jsonOut := flag.Bool("json", false, "emit the full SimResult (incl. energy breakdown) as JSON")
	traceOut := flag.String("trace", "", "write Chrome trace-event JSON of the simulated rank to this file")
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

	task := enmc.SimTask{
		Categories:         *l,
		Hidden:             *d,
		Reduced:            *k,
		Candidates:         *m,
		Batch:              *batch,
		Sigmoid:            *sigmoid,
		FullClassification: *full,
	}
	var opts []enmc.Option
	var tracer *enmc.Tracer
	if *traceOut != "" {
		tracer = enmc.NewTracer()
		opts = append(opts, enmc.WithTracer(tracer))
	}
	res, err := enmc.Simulate(*design, task, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
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

	mode := "approximate screening"
	if *full {
		mode = "full classification"
	}
	if *jsonOut {
		out := struct {
			enmc.SimResult
			Mode        string  `json:"Mode"`
			TotalJoules float64 `json:"TotalJoules"`
		}{res, mode, res.TotalJoules()}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		fmt.Printf("design:          %s (%s)\n", res.Design, mode)
		fmt.Printf("task:            l=%d d=%d batch=%d\n", *l, *d, *batch)
		fmt.Printf("offload time:    %.3f µs (%d rank cycles @ DDR4-2400)\n", res.Seconds*1e6, res.Cycles)
		fmt.Printf("per inference:   %.3f µs\n", res.Seconds*1e6/float64(*batch))
		fmt.Printf("rank traffic:    %.2f MB\n", float64(res.DRAMBytes)/(1<<20))
		fmt.Printf("energy:          %.3f mJ total\n", res.TotalJoules()*1e3)
		fmt.Printf("  DRAM static:   %.3f mJ\n", res.DRAMStaticJoules*1e3)
		fmt.Printf("  DRAM access:   %.3f mJ\n", res.DRAMAccessJoules*1e3)
		fmt.Printf("  logic:         %.3f mJ\n", res.LogicJoules*1e3)
		if len(res.PhaseCycles) > 0 {
			fmt.Printf("phase cycles (one rank, unit-busy):\n")
			for _, name := range []string{"feature-load", "screen", "filter", "exact-recompute", "activation", "output", "other"} {
				if c, ok := res.PhaseCycles[name]; ok {
					fmt.Printf("  %-16s %d\n", name+":", c)
				}
			}
		}
	}

	if *metrics {
		snap := enmc.MetricsSnapshot()
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
