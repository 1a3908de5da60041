package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Track IDs shared by the pipeline and simulator instrumentation.
// Chrome's trace viewer renders one swim-lane per (pid, tid); the
// constants keep the lanes stable across producers.
const (
	TrackPipeline = 0 // algorithm-level Classify/Train spans (worker 0)
	TrackCtrl     = 100
	TrackScreener = 101
	TrackExecutor = 102
	TrackDRAM     = 103
	// TrackRegistry carries the model-lifecycle spans (load /
	// canary-validate / swap) the registry manager records, so a
	// hot swap's off-request-path work shows up as its own lane
	// next to the serving pipeline.
	TrackRegistry = 104
	// TrackHTTP carries the serving layer's per-request spans (one
	// span per /v1/* request, from admission to response write) —
	// the root every cluster RPC and remote shard span nests under
	// in a distributed capture.
	TrackHTTP = 150
	// TrackClusterBase is the first cluster-router span lane: shard
	// i's RPC attempts (first tries and failovers) land on lane
	// TrackClusterBase+i, one swim-lane per shard so a slow or
	// flapping shard is visible at a glance in the trace viewer.
	TrackClusterBase = 200
)

// Span is one completed interval on a track. Start and Dur are in
// tracer ticks (nanoseconds by default; simulated DRAM cycles when
// the simulator owns the tracer — see SetTimebase).
type Span struct {
	Name  string
	Cat   string
	TID   int
	Start int64
	Dur   int64
	// Bytes annotates data-movement spans (0 = omitted).
	Bytes int64
	// PID is the process lane in a distributed capture: 0 is the
	// recording process itself; spans merged from a remote process
	// (a cluster shard worker's reply) carry that process's lane so
	// the trace viewer groups them under their own process header.
	PID int
	// Trace is the distributed trace ID this span belongs to (empty
	// = untraced). Exported as an arg so one Perfetto capture can be
	// filtered down to a single propagated request.
	Trace string
	// Tenant names the tenant the span's request resolved to (empty =
	// no tenancy). Exported as an arg so a capture can be filtered to
	// one tenant's traffic.
	Tenant string
}

// Tracer collects spans. The zero value is NOT ready; use NewTracer.
// A nil *Tracer is a valid receiver for every method and records
// nothing, so instrumented code needs no guards beyond passing the
// pointer through.
type Tracer struct {
	mu           sync.Mutex
	spans        []Span
	threadNames  map[int]string
	procNames    map[int]string
	ticksPerUsec float64
	epoch        time.Time
}

// NewTracer returns an empty tracer in the wall-clock timebase
// (nanosecond ticks relative to the tracer's creation).
func NewTracer() *Tracer {
	return &Tracer{
		threadNames:  map[int]string{},
		procNames:    map[int]string{},
		ticksPerUsec: 1000, // ns → µs
		epoch:        time.Now(),
	}
}

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// SetTimebase declares how many ticks make one microsecond in the
// exported trace. The simulator sets this to its DRAM clock in MHz so
// spans recorded in cycles display in real time.
func (t *Tracer) SetTimebase(ticksPerUsec float64) {
	if t == nil || ticksPerUsec <= 0 {
		return
	}
	t.mu.Lock()
	t.ticksPerUsec = ticksPerUsec
	t.mu.Unlock()
}

// SetThreadName labels a track in the exported trace.
func (t *Tracer) SetThreadName(tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.threadNames[tid] = name
	t.mu.Unlock()
}

// SetProcessName labels a process lane in the exported trace — the
// cluster router names lane 0 after itself and lane 1+i after shard
// i's worker, so a merged distributed capture reads as a process tree.
func (t *Tracer) SetProcessName(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.procNames[pid] = name
	t.mu.Unlock()
}

// Add records one completed span.
func (t *Tracer) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Now returns the current tick in the wall-clock timebase
// (nanoseconds since the tracer was created). Nil-safe: returns 0.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Nanoseconds()
}

// AddSince records a span from a start tick (from Now) to the present
// — the one-line wall-clock instrumentation pattern:
//
//	start := tr.Now()
//	...work...
//	tr.AddSince("screen", telemetry.TrackPipeline, start)
func (t *Tracer) AddSince(name string, tid int, start int64) {
	if t == nil {
		return
	}
	t.Add(Span{Name: name, TID: tid, Start: start, Dur: t.Now() - start})
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Clear drops every recorded span (thread/process names stay) — the
// drain half of a /debug/spans?drain=1 capture, so a long-lived
// server's tracer does not grow without bound between captures.
func (t *Tracer) Clear() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// Global tracer: a process-wide fallback consulted by instrumented
// code paths that have no explicit tracer plumbing (the experiment
// harness behind `enmc-bench -trace`). Nil by default, so the hot
// paths see a nil tracer unless a command opts in.
var globalTracer atomic.Pointer[Tracer]

// SetGlobal installs (or, with nil, removes) the process-wide tracer.
func SetGlobal(t *Tracer) {
	globalTracer.Store(t)
}

// Global returns the process-wide tracer, or nil.
func Global() *Tracer { return globalTracer.Load() }
