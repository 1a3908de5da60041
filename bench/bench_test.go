package main

import (
	"bytes"
	"context"
	"reflect"
	"regexp"
	"testing"

	"enmc/internal/server"
)

// The self-test runs every workload at the tiny shape for a second:
// it checks the harness, not the numbers.

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func tinyOptions(workload string, trace bool) runOptions {
	return runOptions{workload: workload, seed: 7, seconds: 1, trace: trace, shape: "tiny"}
}

// checkMetrics asserts that a run emitted exactly the metrics
// BENCHMARK.json names, each with the unit it states.
func checkMetrics(t *testing.T, got map[string]metric, want []metricSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
	seen := map[string]bool{}
	for _, ms := range want {
		if !nameRE.MatchString(ms.Name) {
			t.Errorf("metric name %q does not match %s", ms.Name, nameRE)
		}
		if seen[ms.Name] {
			t.Errorf("metric %q is listed twice", ms.Name)
		}
		seen[ms.Name] = true
		m, ok := got[ms.Name]
		if !ok {
			t.Errorf("metric %q was not emitted", ms.Name)
		} else if m.Unit != ms.Unit || m.Unit == "" {
			t.Errorf("metric %q: unit %q, BENCHMARK.json says %q", ms.Name, m.Unit, ms.Unit)
		}
	}
}

func TestWorkloadsEmitBenchmarkJSON(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(specs))
	}
	for i, wl := range spec.Workloads {
		if wl.Name != specs[i].name || !nameRE.MatchString(wl.Name) {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, wl.Name, specs[i].name)
		}
		t.Run(wl.Name, func(t *testing.T) {
			rec, err := run(tinyOptions(wl.Name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted < 1 {
				t.Errorf("attempted %d, failed %d, correct %v", rec.Result.Attempted, rec.Result.Failed, rec.Result.Correct)
			}
			checkMetrics(t, rec.Result.Metrics, spec.EndToEnd)
			for name, m := range rec.Result.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", name, m.Value)
				}
			}
		})
	}
}

func TestTracedRunsNestAndEmitPerLayer(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			opt := tinyOptions(sp.name, true)
			sp.shape = opt.shape
			rec := &record{Samples: map[string]int{}}
			tr, err := runTraced(sp, shapes[sp.shape], opt, maxProcs(), rec)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, rec.Result.Metrics, spec.PerLayer)

			byID := map[int32]span{}
			names := map[string]int{}
			for _, s := range tr.spans {
				byID[s.ID] = s
				names[s.Name]++
			}
			for _, s := range tr.spans {
				if s.End < s.Start {
					t.Errorf("%s span %d ends before it starts", s.Name, s.ID)
				}
				p, ok := byID[s.Parent]
				if s.Parent == 0 {
					continue
				}
				if !ok {
					t.Errorf("%s span %d names parent %d, which was not recorded", s.Name, s.ID, s.Parent)
				} else if s.Start < p.Start || s.End > p.End {
					t.Errorf("%s [%d, %d] exceeds its parent %s [%d, %d]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
				}
			}
			want := []string{spanRequest, spanHandler}
			switch {
			case sp.clustered():
				want = append(want, spanQueue, spanBackend, spanRPC, spanWorker)
			case sp.kind == closedDecode:
				want = append(want, spanScore, spanToken)
			default:
				want = append(want, spanBackend)
			}
			for _, name := range want {
				if names[name] == 0 {
					t.Errorf("no %s span was recorded (have %v)", name, names)
				}
			}
		})
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	m, err := buildModel(shapes["tiny"], 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		a, b, other := makeInputs(sp, m, 3), makeInputs(sp, m, 3), makeInputs(sp, m, 4)
		if !reflect.DeepEqual(a.bodies, b.bodies) {
			t.Errorf("%s: the same seed produced different request bodies", sp.name)
		}
		if bytes.Equal(a.bodies[0], other.bodies[0]) {
			t.Errorf("%s: different seeds produced the same first request body", sp.name)
		}
	}
	if !reflect.DeepEqual(poissonSchedule(3, openRate, 2), poissonSchedule(3, openRate, 2)) {
		t.Error("the same seed produced different arrival schedules")
	}
	due := poissonSchedule(3, openRate, 2)
	if len(due) != 2*openRate {
		t.Errorf("schedule has %d arrivals, want %d", len(due), 2*openRate)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
}

// plainBackend and partialBackend are minimal backends for the
// decorator test.
type plainBackend struct{}

func (plainBackend) ClassifyBatch(context.Context, [][]float32, int, int) ([]server.Outcome, error) {
	return nil, nil
}
func (plainBackend) Hidden() int     { return 2 }
func (plainBackend) Categories() int { return 3 }

type partialBackend struct{ plainBackend }

func (partialBackend) ClassifyBatchPartial(context.Context, [][]float32, int, int) ([]server.Outcome, server.Partial, error) {
	return nil, server.Partial{Partial: true, MissingShards: []int{1}}, nil
}
func (partialBackend) ModelVersion() string { return "v7" }
func (partialBackend) VersionSkew() bool    { return true }

func TestBackendTapKeepsOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	if _, ok := tapBackend(tr, plainBackend{}).(server.PartialBackend); ok {
		t.Error("the tap made a plain backend look partial-capable")
	}
	tapped := tapBackend(tr, partialBackend{})
	pb, ok := tapped.(server.PartialBackend)
	if !ok {
		t.Fatal("the tap hides PartialBackend, so the server would never report a partial answer")
	}
	_, p, err := pb.ClassifyBatchPartial(context.Background(), [][]float32{{1, 2}}, 1, 1)
	if err != nil || !p.Partial || len(p.MissingShards) != 1 {
		t.Errorf("partial result not forwarded: %+v, %v", p, err)
	}
	if v, ok := tapped.(server.Versioned); !ok || v.ModelVersion() != "v7" {
		t.Error("the tap hides ModelVersion")
	}
	if s, ok := tapped.(server.SkewReporter); !ok || !s.VersionSkew() {
		t.Error("the tap hides VersionSkew")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
