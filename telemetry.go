package enmc

import (
	"io"

	"enmc/internal/dram"
	"enmc/internal/telemetry"
)

// Tracer collects execution spans from the inference pipeline
// (Classify, TrainScreener) and the cycle-level simulator (Simulate)
// and exports them as Chrome trace-event JSON, loadable in
// chrome://tracing or https://ui.perfetto.dev.
//
// Pipeline spans are recorded in wall-clock time; simulator spans in
// simulated DRAM time. Use a separate Tracer per domain — Simulate
// rebases the tracer's timebase to the DRAM clock.
type Tracer struct {
	inner *telemetry.Tracer
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{inner: telemetry.NewTracer()} }

// WriteChromeTrace renders the recorded spans as Chrome trace-event
// JSON.
func (t *Tracer) WriteChromeTrace(w io.Writer) error { return t.inner.WriteChromeTrace(w) }

// SpanCount returns the number of spans recorded so far.
func (t *Tracer) SpanCount() int { return t.inner.Len() }

// SetGlobalTracer installs tr as the process-wide tracer that every
// un-optioned Classify/TrainScreener call reports to (nil uninstalls)
// — how `enmc-bench -trace` captures the experiment harness without
// plumbing a tracer through every call site.
func SetGlobalTracer(tr *Tracer) {
	if tr == nil {
		telemetry.SetGlobal(nil)
		return
	}
	telemetry.SetGlobal(tr.inner)
}

// Option configures a Classify/ClassifyBatch/Simulate call.
type Option func(*callOpts)

type callOpts struct {
	tracer *telemetry.Tracer
}

func (o *callOpts) apply(opts []Option) {
	for _, fn := range opts {
		fn(o)
	}
	if o.tracer == nil {
		o.tracer = telemetry.Global()
	}
}

// WithTracer directs the call's spans to tr.
func WithTracer(tr *Tracer) Option {
	return func(o *callOpts) {
		if tr != nil {
			o.tracer = tr.inner
		}
	}
}

// Metrics is a point-in-time, JSON-marshalable snapshot of the
// process-wide telemetry registry: pipeline counters and latency/
// candidate histograms under "core.*", simulator DRAM command
// counters under "dram.*" (populated while EnableDRAMMetrics is on).
type Metrics = telemetry.Snapshot

// MetricsSnapshot captures the current state of every built-in
// instrument. Instruments are always live — after any Classify or
// ClassifyBatch the candidate-count and latency histograms are
// non-zero.
func MetricsSnapshot() Metrics { return telemetry.Default().Snapshot() }

// ResetMetrics zeroes every instrument (between-run isolation in
// long-lived processes and tests).
func ResetMetrics() { telemetry.Default().Reset() }

// EnableDRAMMetrics mirrors simulated DRAM commands (reads, writes,
// activates, precharges, refreshes, row hits/misses, bytes) into the
// registry as they issue. Off by default: the mirror costs an atomic
// pointer load per DRAM command even when nobody reads it.
func EnableDRAMMetrics() { dram.EnableMetrics(telemetry.Default()) }

// DisableDRAMMetrics stops the mirroring.
func DisableDRAMMetrics() { dram.DisableMetrics() }

// ServeDebug starts an HTTP observability endpoint on addr
// (host:port, ":0" picks a free port) exposing the registry in
// Prometheus text at /metrics, net/http/pprof profiles under
// /debug/pprof/, the standard library's expvar under /debug/vars and
// the global tracer's spans at /debug/spans. It returns the bound
// address; the server runs until the process exits.
func ServeDebug(addr string) (string, error) {
	bound, _, err := telemetry.ServeDebug(addr)
	return bound, err
}
