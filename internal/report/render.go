package report

// Rendering BENCHMARK.md. Everything here must be byte-deterministic
// given the same corpus: no timestamps, no map-order iteration. CI
// regenerates the document and fails on any diff, so a
// nondeterministic renderer would make the stale-report gate flap.

import (
	"fmt"
	"sort"
	"strings"
)

// Render produces the complete BENCHMARK.md contents.
func (r *Report) Render() string {
	var b strings.Builder
	runs := 0
	for _, s := range r.sets {
		for _, recs := range s.runs {
			runs += len(recs)
		}
	}
	fmt.Fprintf(&b, "# ENMC Benchmark Report\n\n")
	fmt.Fprintf(&b, "<!-- Generated by `make report` (cmd/enmc-report) from the record sets under\n")
	fmt.Fprintf(&b, "     benchdata/gate/ and the metric definitions in BENCHMARK.json. Do not edit\n")
	fmt.Fprintf(&b, "     by hand: `make report-check` fails on any drift. -->\n\n")
	fmt.Fprintf(&b, "Every number below is a run of the repository benchmark, kept by\n")
	fmt.Fprintf(&b, "`bash bench/run.sh --workload all --repeat 5 --out benchdata/gate/<date>_<label>`;\n")
	fmt.Fprintf(&b, "the rules are in [BENCHMARKING.md](BENCHMARKING.md). A record set is admitted\n")
	fmt.Fprintf(&b, "whole or not at all: every workload has at least %d runs, every run checked its\n", minRuns)
	fmt.Fprintf(&b, "answers correct, and every run shares one host. Quartiles follow Python's\n")
	fmt.Fprintf(&b, "`statistics.quantiles(n=4)`, as `bash bench/run.sh --compare` prints them;\n")
	fmt.Fprintf(&b, "spread is (q3 − q1) / median. Δ is a set's median over the previous set's, and\n")
	fmt.Fprintf(&b, "reads `n/c` when the two sets ran on different hosts.\n\n")
	fmt.Fprintf(&b, "Corpus: %d record set(s), %d run(s).\n\n", len(r.sets), runs)

	for _, w := range r.spec.Workloads {
		fmt.Fprintf(&b, "## %s\n\n%s.\n\n", w.Name, w.Why)
		fmt.Fprintf(&b, "| metric | unit | better | set | median | q1 | q3 | spread | n | Δ |\n")
		fmt.Fprintf(&b, "|--------|------|--------|-----|-------:|---:|---:|-------:|--:|--:|\n")
		for _, m := range r.spec.EndToEnd {
			var prev *set
			var prevMed float64
			for i := range r.sets {
				s := &r.sets[i]
				var xs []float64
				for _, rec := range s.runs[w.Name] {
					xs = append(xs, rec.Result.Metrics[m.Name].Value)
				}
				q1, med, q3 := quartiles(xs)
				delta := "—"
				switch {
				case prev != nil && prev.host != s.host:
					delta = "n/c"
				case prev != nil && prevMed != 0:
					delta = fmt.Sprintf("%.2f×", med/prevMed)
				}
				spread := "—"
				if med != 0 {
					spread = fmt.Sprintf("%.2f%%", 100*(q3-q1)/med)
				}
				fmt.Fprintf(&b, "| %s | %s | %s | %s | %.5g | %.5g | %.5g | %s | %d | %s |\n",
					m.Name, m.Unit, m.Better, s.name, med, q1, q3, spread, len(xs), delta)
				prev, prevMed = s, med
			}
		}
		fmt.Fprintf(&b, "\n")
	}

	fmt.Fprintf(&b, "## Record sets\n\n")
	fmt.Fprintf(&b, "The host every run of a set shares, the runs per workload (in the order of the\n")
	fmt.Fprintf(&b, "sections above), and the answers the runs attempted and failed in total.\n\n")
	fmt.Fprintf(&b, "| set | cpu | nproc | GOMAXPROCS | go | runs per workload | attempted | failed |\n")
	fmt.Fprintf(&b, "|-----|-----|------:|-----------:|----|-------------------|----------:|-------:|\n")
	for _, s := range r.sets {
		var counts []string
		attempted, failed := 0, 0
		for _, w := range r.spec.Workloads {
			counts = append(counts, fmt.Sprint(len(s.runs[w.Name])))
			for _, rec := range s.runs[w.Name] {
				attempted += rec.Result.Attempted
				failed += rec.Result.Failed
			}
		}
		fmt.Fprintf(&b, "| %s | %s | %d | %d | %s | %s | %d | %d |\n",
			s.name, s.host.CPU, s.host.NProc, s.host.GoMaxProcs, s.host.Go,
			strings.Join(counts, " / "), attempted, failed)
	}
	return b.String()
}

// quartiles is Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method, which extrapolates below the least and above the
// greatest of two or three values); a single value is its own
// quartiles, as in Python 3.13.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
