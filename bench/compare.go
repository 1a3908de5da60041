package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json the tools read.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricSpec            `json:"end_to_end"`
	PerLayer  []metricSpec            `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRecords reads the untraced run records under a directory (as
// -out wrote them), grouped by workload.
func loadRecords(dir string) (map[string][]record, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*-trace0.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no run records (*-trace0.json)", dir)
	}
	out := map[string][]record{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out[rec.Workload] = append(out[rec.Workload], rec)
	}
	return out, nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the rule
// the acceptance check uses. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	if len(xs) == 1 {
		return xs[0], xs[0], xs[0]
	}
	at := func(i int) float64 {
		j, delta := i*(len(xs)+1)/4, i*(len(xs)+1)%4
		j = min(max(j, 1), len(xs)-1)
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// compareSets prints, per workload × end-to-end metric, both sets'
// medians and quartiles, their relative spreads and the bound, and
// marks the row ok, regressed (b's median is worse than a's by more
// than the bound) or unresolved (a spread is wider than the bound, so
// the runs cannot tell).
func compareSets(w io.Writer, spec *benchmarkSpec, a, b map[string][]record) (regressed, unresolved int) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median [q1, q3]\tn\tb median [q1, q3]\tn\tspread a\tspread b\tworse by\tbound\tverdict")
	for _, wl := range spec.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, ms := range spec.EndToEnd {
			values := func(recs []record) []float64 {
				var xs []float64
				for _, r := range recs {
					if m, ok := r.Result.Metrics[ms.Name]; ok {
						xs = append(xs, m.Value)
					}
				}
				return xs
			}
			xa, xb := values(ra), values(rb)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			worse := (b2 - a2) / a2
			if ms.Better == "higher" {
				worse = -worse
			}
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			verdict := "ok"
			switch {
			case ms.Name != "setup_s" && max(spreadA, spreadB) > ms.Bound:
				// setup_s is judged on medians alone, as the driver does.
				verdict = "unresolved"
				unresolved++
			case worse > ms.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g]\t%d\t%.5g [%.5g, %.5g]\t%d\t%.2f%%\t%.2f%%\t%+.2f%%\t%.1f%%\t%s\n",
				wl.Name, ms.Name, ms.Unit, a2, a1, a3, len(xa), b2, b1, b3, len(xb),
				100*spreadA, 100*spreadB, 100*worse, 100*ms.Bound, verdict)
		}
	}
	_ = tw.Flush()
	return regressed, unresolved
}

// compareDirs is the -compare entry point.
func compareDirs(w io.Writer, specPath, dirA, dirB string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := loadRecords(dirA)
	if err != nil {
		return err
	}
	b, err := loadRecords(dirB)
	if err != nil {
		return err
	}
	regressed, unresolved := compareSets(w, spec, a, b)
	fmt.Fprintf(w, "%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressed)
	}
	return nil
}
