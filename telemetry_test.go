package enmc

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"enmc/internal/core"
)

// trainedModel builds a small classifier+screener pair through the
// public API.
func trainedModel(t testing.TB) (*Classifier, *Screener, [][]float32) {
	t.Helper()
	cls, samples := publicModel(t, 256, 64)
	scr, err := TrainScreener(cls, samples[:96], ScreenerConfig{Seed: 3, Epochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	return cls, scr, samples[96:]
}

// TestMetricsSnapshotAfterBatch is the acceptance check: after a
// ClassifyBatch the registry's candidate-count and latency histograms
// are non-zero.
func TestMetricsSnapshotAfterBatch(t *testing.T) {
	ResetMetrics()
	cls, scr, test := trainedModel(t)
	out := ClassifyBatch(cls, scr, test, TopM(16))
	if len(out) != len(test) {
		t.Fatalf("batch returned %d results, want %d", len(out), len(test))
	}

	snap := MetricsSnapshot()
	if got := snap.Counters["core.classify.count"]; got != int64(len(test)) {
		t.Errorf("classify count = %d, want %d", got, len(test))
	}
	cands := snap.Histograms["core.classify.candidates"]
	if cands.Count == 0 || cands.Sum == 0 {
		t.Errorf("candidate histogram empty: %+v", cands)
	}
	if cands.Sum != float64(16*len(test)) {
		t.Errorf("candidate sum = %g, want %d", cands.Sum, 16*len(test))
	}
	lat := snap.Histograms["core.classify.latency_ns"]
	if lat.Count == 0 || lat.Sum <= 0 {
		t.Errorf("latency histogram empty: %+v", lat)
	}
	for _, name := range []string{"core.classify.screen_ns", "core.classify.exact_ns", "core.classify.batch_ns"} {
		if snap.Histograms[name].Count == 0 {
			t.Errorf("%s empty", name)
		}
	}
	if snap.Histograms["core.classify.batch_size"].Sum != float64(len(test)) {
		t.Errorf("batch_size sum = %g", snap.Histograms["core.classify.batch_size"].Sum)
	}

	// The snapshot is JSON-marshalable (the -metrics contract).
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot marshal: %v", err)
	}
}

// TestClassifyTracerSpans checks WithTracer records per-stage spans
// and the export is valid Chrome trace JSON.
func TestClassifyTracerSpans(t *testing.T) {
	cls, scr, test := trainedModel(t)
	tr := NewTracer()
	Classify(cls, scr, test[0], TopM(8), WithTracer(tr))
	if tr.SpanCount() != 3 {
		t.Fatalf("span count = %d, want 3 (screen/select/exact)", tr.SpanCount())
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"screen", "select", "exact-recompute"} {
		if !strings.Contains(buf.String(), `"name":"`+name+`"`) {
			t.Errorf("trace missing span %q", name)
		}
	}
}

// TestSimulateTraceCoversPhases is the acceptance check for the
// simulator: a traced enmc-design run produces spans covering the
// screen, filter, exact-recompute and DRAM phases, and the Chrome
// trace parses back through encoding/json.
func TestSimulateTraceCoversPhases(t *testing.T) {
	tr := NewTracer()
	res, err := Simulate("enmc", SimTask{Categories: 65536, Hidden: 512, Batch: 2}, WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if tr.SpanCount() == 0 {
		t.Fatal("no spans recorded")
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range out.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"screen", "filter", "exact-recompute", "dram.read.screen", "dram.read.exact-recompute"} {
		if !names[want] {
			t.Errorf("trace missing span name %q (have %d distinct names)", want, len(names))
		}
	}

	// Per-phase cycle attribution reached the facade result.
	for _, phase := range []string{"screen", "filter", "exact-recompute"} {
		if res.PhaseCycles[phase] == 0 {
			t.Errorf("PhaseCycles[%q] = 0", phase)
		}
	}
}

// TestSimulateJSONRoundTrip pins the machine-readable SimResult shape
// the enmc-sim -json flag emits.
func TestSimulateJSONRoundTrip(t *testing.T) {
	res, err := Simulate("enmc", SimTask{Categories: 32768, Hidden: 256})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back SimResult
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Cycles != res.Cycles || back.TotalJoules() != res.TotalJoules() {
		t.Errorf("round trip changed result: %+v vs %+v", back, res)
	}
	if len(back.PhaseCycles) == 0 {
		t.Error("PhaseCycles lost in round trip")
	}
}

// TestDRAMMetricsToggle checks the opt-in DRAM command mirror.
func TestDRAMMetricsToggle(t *testing.T) {
	ResetMetrics()
	EnableDRAMMetrics()
	defer DisableDRAMMetrics()
	if _, err := Simulate("enmc", SimTask{Categories: 16384, Hidden: 256}); err != nil {
		t.Fatal(err)
	}
	snap := MetricsSnapshot()
	if snap.Counters["dram.reads"] == 0 {
		t.Error("dram.reads = 0 with metrics enabled")
	}
	if snap.Counters["dram.row_hits"]+snap.Counters["dram.row_misses"] == 0 {
		t.Error("no row hit/miss counts with metrics enabled")
	}

	DisableDRAMMetrics()
	before := MetricsSnapshot().Counters["dram.reads"]
	if _, err := Simulate("enmc", SimTask{Categories: 16384, Hidden: 256}); err != nil {
		t.Fatal(err)
	}
	if after := MetricsSnapshot().Counters["dram.reads"]; after != before {
		t.Errorf("dram.reads advanced while disabled: %d -> %d", before, after)
	}
}

// TestGlobalTracerCapturesUnoptionedCalls checks SetGlobalTracer
// reaches call sites with no explicit option (the enmc-bench -trace
// path).
func TestGlobalTracerCapturesUnoptionedCalls(t *testing.T) {
	cls, scr, test := trainedModel(t)
	tr := NewTracer()
	SetGlobalTracer(tr)
	defer SetGlobalTracer(nil)
	Classify(cls, scr, test[0], TopM(4))
	if tr.SpanCount() == 0 {
		t.Fatal("global tracer saw no spans")
	}
}

// TestClassifyNoAllocTelemetry guards the hot-path contract: with the
// default nil tracer, the always-on metrics add zero allocations over
// the bare pipeline stages.
func TestClassifyNoAllocTelemetry(t *testing.T) {
	cls, scr, test := trainedModel(t)
	h := test[0]
	sel := core.TopM(10)

	// The bare pipeline, stage by stage, with no telemetry.
	bare := func() {
		ztilde := scr.inner.Screen(h)
		cands := core.SelectCandidates(ztilde, sel)
		exact := cls.inner.LogitsRows(cands, h)
		for j, c := range cands {
			ztilde[c] = exact[j]
		}
	}
	instrumented := func() {
		core.ClassifyApprox(cls.inner, scr.inner, h, sel)
	}

	base := testing.AllocsPerRun(200, bare)
	// One extra allocation is the *Result wrapper itself; anything
	// beyond that would be telemetry leaking into the hot path.
	got := testing.AllocsPerRun(200, instrumented)
	if got > base+1 {
		t.Errorf("ClassifyApprox allocates %.1f/op, bare pipeline %.1f/op (+1 for Result allowed)", got, base)
	}
}
