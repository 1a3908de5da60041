// Command enmc-report regenerates the committed BENCHMARK.md from the
// repository benchmark's record sets under benchdata/gate/ (each one
// `bash bench/run.sh --out benchdata/gate/<YYYY-MM-DD>_<label>`), with
// metric names, units and directions from BENCHMARK.json. A set that
// fails the gate (fewer than 5 runs of a workload, a run that is not
// correct, two hosts in one set, malformed JSON) rejects the corpus.
//
// Usage:
//
//	enmc-report           # regenerate BENCHMARK.md in place
//	enmc-report -check    # CI stale gate: fail if the committed report
//	                      # differs from a fresh rendering or the gate
//	                      # rejects the corpus
//
// Exit codes: 0 ok; 1 corpus rejected (or I/O error); 2 the committed
// report is stale (-check only).
package main

import (
	"flag"
	"fmt"
	"os"

	"enmc/internal/report"
)

func main() {
	out := flag.String("out", "BENCHMARK.md", "report path to write (or, with -check, to compare against)")
	check := flag.Bool("check", false, "do not write: fail if -out differs from a fresh rendering (the CI stale-report gate)")
	flag.Parse()

	rep, err := report.Build("BENCHMARK.json", "benchdata/gate")
	if err != nil {
		fmt.Fprintf(os.Stderr, "enmc-report: corpus rejected: %v\n", err)
		os.Exit(1)
	}
	rendered := rep.Render()
	if *check {
		if err := report.Check(rendered, *out); err != nil {
			fmt.Fprintf(os.Stderr, "enmc-report: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "enmc-report: %s is current\n", *out)
		return
	}
	if err := os.WriteFile(*out, []byte(rendered), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "enmc-report: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "enmc-report: wrote %s\n", *out)
}
