package report

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testSpec is a two-workload, two-metric BENCHMARK.json.
const testSpec = `{
  "workloads": [{"name": "w-a", "why": "first"}, {"name": "w-b", "why": "second"}],
  "end_to_end": [
    {"name": "cls_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "lat_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
  ]
}`

var hostA = hostInfo{CPU: "cpu-a", NProc: 2, GoMaxProcs: 2, Go: "go1.24.0"}

// run is one record as bench/run.sh --out writes it (fields the report
// does not read included).
func run(workload string, seed int, host hostInfo, correct bool, cls float64) string {
	failed := 0
	if !correct {
		failed = 3
	}
	rec := map[string]any{
		"workload": workload, "seed": seed, "seconds": 20, "trace": false, "host": host,
		"samples": map[string]int{"lat_p50_ms": 100},
		"result": map[string]any{
			"correct": correct, "attempted": 100, "failed": failed,
			"metrics": map[string]any{
				"cls_per_s":  map[string]any{"value": cls, "unit": "1/s"},
				"lat_p50_ms": map[string]any{"value": 1000 / cls, "unit": "ms"},
			},
		},
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(data) + "\n"
}

// corpus is a benchmark definition plus a record-set root in a temp dir.
type corpus struct {
	t          *testing.T
	spec, root string
}

func newCorpus(t *testing.T) *corpus {
	dir := t.TempDir()
	c := &corpus{t: t, spec: filepath.Join(dir, "BENCHMARK.json"), root: filepath.Join(dir, "gate")}
	c.write(c.spec, testSpec)
	return c
}

func (c *corpus) write(path, contents string) {
	c.t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		c.t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(contents), 0o644); err != nil {
		c.t.Fatal(err)
	}
}

// addSet writes a valid set: runs per workload, seeds 1.., cls_per_s
// base, base+1, ...
func (c *corpus) addSet(name string, host hostInfo, runs int, base float64) {
	for _, w := range []string{"w-a", "w-b"} {
		for i := 1; i <= runs; i++ {
			c.file(name, fmt.Sprintf("%s-seed%d-trace0.json", w, i), run(w, i, host, true, base+float64(i-1)))
		}
	}
}

func (c *corpus) file(set, name, contents string) {
	c.write(filepath.Join(c.root, set, name), contents)
}

func (c *corpus) render() (string, error) {
	rep, err := Build(c.spec, c.root)
	if err != nil {
		return "", err
	}
	return rep.Render(), nil
}

// rejected asserts the corpus is refused with an error containing want.
func (c *corpus) rejected(want string) {
	c.t.Helper()
	_, err := c.render()
	if err == nil {
		c.t.Fatal("corpus admitted")
	}
	if !strings.Contains(err.Error(), want) {
		c.t.Fatalf("rejection %q does not mention %q", err, want)
	}
}

func TestLoadBenchMalformedJSON(t *testing.T) {
	good := run("w-a", 9, hostA, true, 10)
	cases := map[string]struct{ set, file, contents string }{
		"garbage":      {"2026-10-15_x", "w-a-seed9-trace0.json", "not json at all"},
		"truncated":    {"2026-10-15_x", "w-a-seed9-trace0.json", good[:len(good)/2]},
		"wrong-shape":  {"2026-10-15_x", "w-a-seed9-trace0.json", "[" + good + "]"},
		"trailing":     {"2026-10-15_x", "w-a-seed9-trace0.json", good + "}"},
		"no-date":      {"x", "w-a-seed9-trace0.json", good},
		"empty-record": {"2026-10-15_x", "w-a-seed9-trace0.json", "{}"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			c := newCorpus(t)
			c.addSet(tc.set, hostA, 5, 10)
			c.file(tc.set, tc.file, tc.contents)
			c.rejected(tc.set)
		})
	}
}

func TestGateRejectsTooFewRuns(t *testing.T) {
	c := newCorpus(t)
	c.addSet("2026-10-15_x", hostA, 5, 10)
	if err := os.Remove(filepath.Join(c.root, "2026-10-15_x", "w-b-seed5-trace0.json")); err != nil {
		t.Fatal(err)
	}
	c.rejected("workload w-b has 4 run(s)")
}

func TestGateRejectsMixedHosts(t *testing.T) {
	c := newCorpus(t)
	c.addSet("2026-10-15_x", hostA, 5, 10)
	other := hostA
	other.NProc = 4
	c.file("2026-10-15_x", "w-b-seed3-trace0.json", run("w-b", 3, other, true, 12))
	c.rejected("w-b-seed3-trace0.json: host")
}

func TestGateRejectsIncorrectRecord(t *testing.T) {
	c := newCorpus(t)
	c.addSet("2026-10-15_x", hostA, 5, 10)
	c.file("2026-10-15_x", "w-a-seed2-trace0.json", run("w-a", 2, hostA, false, 11))
	c.rejected("w-a-seed2-trace0.json: run is not correct")
}

// A record that does not match BENCHMARK.json — an undeclared
// workload, or an end-to-end metric missing or in another unit — was
// written against another definition of the benchmark.
func TestGateRejectsUnknownSchema(t *testing.T) {
	for name, edit := range map[string]func(string) string{
		"workload": func(s string) string { return strings.Replace(s, `"w-a"`, `"w-z"`, 1) },
		"unit":     func(s string) string { return strings.Replace(s, `"unit": "ms"`, `"unit": "us"`, 1) },
		"metric":   func(s string) string { return strings.Replace(s, `"cls_per_s"`, `"qps"`, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			c := newCorpus(t)
			c.addSet("2026-10-15_x", hostA, 5, 10)
			c.file("2026-10-15_x", "w-a-seed1-trace0.json", edit(run("w-a", 1, hostA, true, 10)))
			c.rejected("w-a-seed1-trace0.json")
		})
	}
}

// Traced records carry per-layer metrics, not the end-to-end ones; the
// report reads *-trace0.json only, as `bench/run.sh --compare` does.
func TestTraceRecordsIgnored(t *testing.T) {
	c := newCorpus(t)
	c.addSet("2026-10-15_x", hostA, 5, 10)
	c.file("2026-10-15_x", "w-a-seed1-trace1.json", "not a run record")
	c.file("2026-10-15_x", "w-a-seed1-trace1.chrome.json", "[]")
	out, err := c.render()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "| 2026-10-15_x | cpu-a | 2 | 2 | go1.24.0 | 5 / 5 | 1000 | 0 |") {
		t.Fatalf("trace1 files changed the set:\n%s", out)
	}
}

func TestEmptyBenchCorpusRejected(t *testing.T) {
	c := newCorpus(t)
	c.rejected("empty benchmark corpus")
	// A set directory without a single untraced record is a set
	// missing every workload.
	c.file("2026-10-15_x", "w-a-seed1-trace1.json", "{}")
	c.rejected("workload w-a has 0 run(s)")
}

func TestMixedGoVersionRefusedInTrend(t *testing.T) {
	c := newCorpus(t)
	c.addSet("2026-10-14_old", hostA, 5, 10)
	newer := hostA
	newer.Go = "go1.25.0"
	c.addSet("2026-10-15_new", newer, 5, 10)
	out, err := c.render()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "| cls_per_s | 1/s | higher | 2026-10-15_new | 12 | 10.5 | 13.5 | 25.00% | 5 | n/c |") {
		t.Fatalf("cross-toolchain Δ not refused:\n%s", out)
	}
	if strings.Contains(out, "×") {
		t.Fatalf("a cross-host ratio was rendered:\n%s", out)
	}

	// Same host → the ratio appears: medians 12 → 14.
	c.addSet("2026-10-16_third", newer, 5, 12)
	if out, err = c.render(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "| cls_per_s | 1/s | higher | 2026-10-16_third | 14 | 12.5 | 15.5 | 21.43% | 5 | 1.17× |") {
		t.Fatalf("same-host sets got no Δ:\n%s", out)
	}
}

func TestCPUModelMismatchRefused(t *testing.T) {
	c := newCorpus(t)
	c.addSet("2026-10-14_a", hostA, 5, 10)
	b := hostA
	b.CPU = "cpu-b"
	c.addSet("2026-10-15_b", b, 5, 10)
	out, err := c.render()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "| n/c |") != 4 { // 2 workloads × 2 metrics
		t.Fatalf("sets on different CPUs compared:\n%s", out)
	}
}

func TestDeterministicRendering(t *testing.T) {
	c := newCorpus(t)
	// Written newest first: the order sets were made in must not matter.
	c.addSet("2026-10-16_b", hostA, 6, 20)
	c.addSet("2026-10-15_a", hostA, 5, 10)
	first, err := c.render()
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.render()
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("two renderings of the same corpus differ")
	}
	if strings.Index(first, "| 2026-10-15_a |") > strings.Index(first, "| 2026-10-16_b |") {
		t.Fatal("sets not in date order")
	}
	if strings.Index(first, "## w-a") > strings.Index(first, "## w-b") {
		t.Fatal("workloads not in BENCHMARK.json order")
	}
}

// TestRenderDisclosure pins the record-set table: host, runs per
// workload, attempted and failed totals.
func TestRenderDisclosure(t *testing.T) {
	c := newCorpus(t)
	host := hostInfo{CPU: "Example CPU @ 2.10GHz", NProc: 8, GoMaxProcs: 4, Go: "go1.24.0"}
	c.addSet("2026-10-15_x", host, 5, 10)
	c.file("2026-10-15_x", "w-b-seed6-trace0.json", run("w-b", 6, host, true, 15))
	out, err := c.render()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"## Record sets",
		"| 2026-10-15_x | Example CPU @ 2.10GHz | 8 | 4 | go1.24.0 | 5 / 6 | 1100 | 0 |",
		"Corpus: 1 record set(s), 11 run(s).",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4);
// Python 3.13 returns a single value as its own quartiles.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{4.5}, [3]float64{4.5, 4.5, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{7, 2.5}, [3]float64{1.375, 4.75, 8.125}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{12.5, 3, 7.25, 1, 9, 4.5, 10, 2, 6, 8}, [3]float64{2.75, 6.625, 9.25}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestCheckStaleReport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCHMARK.md")
	if err := os.WriteFile(path, []byte("line one\nline two\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Check("line one\nline two\n", path); err != nil {
		t.Fatalf("current report reported stale: %v", err)
	}
	err := Check("line one\nline CHANGED\n", path)
	if err == nil {
		t.Fatal("stale report not detected")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("stale error does not locate the divergence: %v", err)
	}
	if err := Check("x", filepath.Join(dir, "missing.md")); err == nil {
		t.Fatal("missing committed report not treated as stale")
	}
	// Pure length difference (common prefix identical).
	if err := Check("line one\nline two\nline three\n", path); err == nil {
		t.Fatal("longer regeneration not detected as stale")
	}
}
