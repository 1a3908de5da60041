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
	run := flag.String("run", "", "comma-separated experiments to run (fig4,fig5a,fig5b,fig11,fig12,fig13,fig14,fig15,table2,table3,table4,table5,ablations,ext-scaleout,ext-host,ext-beam,ext-gpu); empty = all")
	quick := flag.Bool("quick", false, "shrink algorithm-level workloads for a fast smoke run")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	seed := flag.Uint64("seed", 42, "random seed for workload generation")
	traceOut := flag.String("trace", "", "write Chrome trace-event JSON of the algorithm pipeline to this file")
	metrics := flag.Bool("metrics", false, "dump the telemetry registry as JSON to stderr after the run")
	pprofAddr := flag.String("pprof", "", "serve pprof/expvar/metrics HTTP on this address (e.g. localhost:6060)")
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

	qo := experiments.QualityOptions{Seed: *seed}
	po := experiments.PerfOptions{}
	if *quick {
		qo.LTarget = 384
		qo.MaxHidden = 128
		qo.TrainSamples = 96
		qo.TestSamples = 48
		qo.Epochs = 4
		po.SampleRows = 2048
	}

	type exp struct {
		name string
		run  func() (*experiments.Table, error)
	}
	all := []exp{
		{"table2", wrap(experiments.Table2)},
		{"table3", wrap(experiments.Table3)},
		{"table4", wrap(experiments.Table4)},
		{"table5", wrap(experiments.Table5)},
		{"fig4", wrap(experiments.Fig4)},
		{"fig5a", wrap(experiments.Fig5a)},
		{"fig5b", wrap(experiments.Fig5b)},
		{"fig11", func() (*experiments.Table, error) { return experiments.Fig11(qo) }},
		{"fig12", func() (*experiments.Table, error) { return experiments.Fig12(qo) }},
		{"fig13", func() (*experiments.Table, error) { return experiments.Fig13(po) }},
		{"fig14", func() (*experiments.Table, error) { return experiments.Fig14(po) }},
		{"fig15", func() (*experiments.Table, error) { return experiments.Fig15(po) }},
		{"ablations", func() (*experiments.Table, error) { return experiments.Ablations(qo) }},
		{"ext-scaleout", func() (*experiments.Table, error) { return experiments.ExtScaleOut(po) }},
		{"ext-host", func() (*experiments.Table, error) { return experiments.ExtHostInterface(po) }},
		{"ext-beam", func() (*experiments.Table, error) { return experiments.ExtBeam(qo) }},
		{"ext-gpu", func() (*experiments.Table, error) { return experiments.ExtGPU(po) }},
	}

	want := map[string]bool{}
	if *run != "" {
		for _, n := range strings.Split(*run, ",") {
			want[strings.TrimSpace(strings.ToLower(n))] = true
		}
	}

	for _, e := range all {
		if len(want) > 0 && !want[e.name] {
			continue
		}
		start := time.Now()
		t, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
		} else {
			fmt.Println(t)
			fmt.Printf("[%s completed in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
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

func wrap(f func() *experiments.Table) func() (*experiments.Table, error) {
	return func() (*experiments.Table, error) { return f(), nil }
}
