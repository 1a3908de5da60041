// Package report renders the committed BENCHMARK.md from the
// repository benchmark's own run records: the sets that
// `bash bench/run.sh --out benchdata/gate/<YYYY-MM-DD>_<label>` wrote.
// Metric names, units and directions come from BENCHMARK.json, which
// this package reads and never edits. A set is one cohort: it is
// admitted only whole, and any violation rejects the corpus, so the
// document CI regenerates and byte-compares is never built on half an
// input.
package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// minRuns is the number of records every workload needs in every set.
const minRuns = 5

// spec is the part of BENCHMARK.json the report reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// hostInfo is the machine and toolchain fingerprint a run record carries.
// Records on different hosts measure the hosts as much as the code, so
// a set holds one host and no Δ is drawn across two.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// record is what the report reads of one untraced run record.
type record struct {
	Workload string   `json:"workload"`
	Host     hostInfo `json:"host"`
	Result   struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	} `json:"result"`
}

// set is one admitted record set: a directory of runs on one host.
type set struct {
	name string
	host hostInfo
	runs map[string][]record // by workload
}

// Report is an admitted corpus, ready to render.
type Report struct {
	spec spec
	sets []set // oldest first
}

// Build reads the benchmark definition at specPath and every record
// set directly under root, and admits the corpus or names the file
// that rejects it.
func Build(specPath, root string) (*Report, error) {
	var r Report
	if err := decodeFile(specPath, &r.spec); err != nil {
		return nil, err
	}
	dirs, err := filepath.Glob(filepath.Join(root, "*"))
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs) // dated names: lexical order is chronological
	for _, dir := range dirs {
		s, err := r.loadSet(dir)
		if err != nil {
			return nil, err
		}
		r.sets = append(r.sets, s)
	}
	if len(r.sets) == 0 {
		return nil, fmt.Errorf("empty benchmark corpus: no record sets under %s", root)
	}
	return &r, nil
}

// loadSet reads the untraced records of one set (the glob
// `bench/run.sh --compare` reads) and applies the gate: a dated name,
// every record correct and carrying every end-to-end metric in its
// declared unit, one host, and minRuns runs of every workload.
func (r *Report) loadSet(dir string) (set, error) {
	s := set{name: filepath.Base(dir), runs: map[string][]record{}}
	if len(s.name) < 12 || s.name[10] != '_' {
		return s, fmt.Errorf("%s: record set is not named <YYYY-MM-DD>_<label>", dir)
	}
	if _, err := time.Parse("2006-01-02", s.name[:10]); err != nil {
		return s, fmt.Errorf("%s: record set is not named <YYYY-MM-DD>_<label>: %v", dir, err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*-trace0.json"))
	if err != nil {
		return s, err
	}
	known := map[string]bool{}
	for _, w := range r.spec.Workloads {
		known[w.Name] = true
	}
	for i, f := range files {
		var rec record
		if err := decodeFile(f, &rec); err != nil {
			return s, err
		}
		if !known[rec.Workload] {
			return s, fmt.Errorf("%s: workload %q is not in BENCHMARK.json", f, rec.Workload)
		}
		if !rec.Result.Correct {
			return s, fmt.Errorf("%s: run is not correct (%d of %d answers failed)", f, rec.Result.Failed, rec.Result.Attempted)
		}
		for _, m := range r.spec.EndToEnd {
			if got, ok := rec.Result.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				return s, fmt.Errorf("%s: record does not carry %s in %s", f, m.Name, m.Unit)
			}
		}
		if i == 0 {
			s.host = rec.Host
		} else if rec.Host != s.host {
			return s, fmt.Errorf("%s: host %+v differs from %s's %+v: a set is one host", f, rec.Host, filepath.Base(files[0]), s.host)
		}
		s.runs[rec.Workload] = append(s.runs[rec.Workload], rec)
	}
	for _, w := range r.spec.Workloads {
		if n := len(s.runs[w.Name]); n < minRuns {
			return s, fmt.Errorf("%s: workload %s has %d run(s), the gate requires >= %d", dir, w.Name, n, minRuns)
		}
	}
	return s, nil
}

// decodeFile parses one JSON document strictly: malformed or truncated
// JSON, or anything after the document, is an error.
func decodeFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s: malformed JSON: %v", path, err)
	}
	if len(bytes.TrimSpace(data[dec.InputOffset():])) > 0 {
		return fmt.Errorf("%s: trailing data after JSON document", path)
	}
	return nil
}
