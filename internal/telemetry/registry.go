// Package telemetry is the repo's zero-dependency observability
// layer: a named registry of atomic counters, gauges and fixed-bucket
// histograms, plus a span Tracer whose output renders as Chrome
// trace-event JSON (chrome://tracing, Perfetto).
//
// Design constraints, in order:
//
//  1. The disabled path costs nothing: a nil *Tracer is a valid
//     receiver everywhere and every instrument operation is a handful
//     of atomic ops with zero allocations — safe to leave permanently
//     wired into the Classify hot path.
//  2. Everything is safe for concurrent use; instruments are shared
//     across the worker pools the pipeline runs on.
//  3. Snapshots are plain JSON-marshalable values so commands can
//     dump them (-metrics) and expvar can publish them verbatim.
package telemetry

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable float64 (last-write-wins).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Add atomically adds delta to the gauge (CAS loop) — the up/down
// form queue-depth and in-flight gauges need, where Set would race
// between concurrent enqueuers and dequeuers.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Histogram is a fixed-bucket distribution: observations land in the
// first bucket whose upper bound is >= the value, with one implicit
// overflow bucket at +Inf. Observe is lock-free and allocation-free.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, immutable after creation
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	minBits atomic.Uint64
	maxBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	h := &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i, _ := slices.BinarySearch(h.bounds, v) // first bound >= v; len(bounds) overflows
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bucket is one histogram bucket in a snapshot. UpperBound is
// math.Inf(1) for the overflow bucket (marshaled as the string "inf"
// would fail, so snapshots drop the infinite bound and mark it with
// Overflow).
type Bucket struct {
	UpperBound float64 `json:"le"`
	Overflow   bool    `json:"overflow,omitempty"`
	Count      int64   `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Mean    float64  `json:"mean"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	Buckets []Bucket `json:"buckets"`
}

// Quantile estimates the q-quantile (0..1) by linear interpolation
// inside the bucket that contains it. The overflow bucket clamps to
// the largest finite bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	lower := 0.0
	for _, b := range s.Buckets {
		prev := cum
		cum += b.Count
		if float64(cum) >= rank && b.Count > 0 {
			if b.Overflow {
				return lower // clamp: no finite upper bound
			}
			frac := (rank - float64(prev)) / float64(b.Count)
			return lower + frac*(b.UpperBound-lower)
		}
		if !b.Overflow {
			lower = b.UpperBound
		}
	}
	return lower
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Sum: math.Float64frombits(h.sumBits.Load()),
	}
	// Count is the sum of the bucket reads, not the separate count
	// atomic: Observe bumps the bucket first, so a scrape racing an
	// in-flight observation could otherwise report a _count one short
	// of its own +Inf cumulative bucket — Prometheus requires the two
	// to agree within one exposition.
	s.Buckets = make([]Bucket, 0, len(h.counts))
	for i := range h.counts {
		n := h.counts[i].Load()
		s.Count += n
		if i < len(h.bounds) {
			s.Buckets = append(s.Buckets, Bucket{UpperBound: h.bounds[i], Count: n})
		} else {
			s.Buckets = append(s.Buckets, Bucket{Overflow: true, Count: n})
		}
	}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
		s.Min = math.Float64frombits(h.minBits.Load())
		s.Max = math.Float64frombits(h.maxBits.Load())
	}
	return s
}

// LatencyBuckets returns exponential nanosecond bounds from 1 µs to
// ~17 s (×2 steps) — the default for wall-clock latency histograms.
func LatencyBuckets() []float64 {
	b := make([]float64, 0, 25)
	for v := 1e3; v <= 17.2e9; v *= 2 {
		b = append(b, v)
	}
	return b
}

// CountBuckets returns exponential bounds from 1 to ~1M (×2 steps) —
// the default for size/cardinality histograms (candidate counts,
// batch sizes).
func CountBuckets() []float64 {
	b := make([]float64, 0, 21)
	for v := 1.0; v <= 1<<20; v *= 2 {
		b = append(b, v)
	}
	return b
}

// Registry is a named instrument store. Lookups get-or-create, so
// instrument handles can be package-level vars with no init ordering
// concerns.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every built-in instrument
// registers on.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time, JSON-marshalable copy of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every instrument's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Reset zeroes every instrument in place (handles stay valid) — test
// isolation and between-run resets in long-lived processes.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.histograms {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.count.Store(0)
		h.sumBits.Store(0)
		h.minBits.Store(math.Float64bits(math.Inf(1)))
		h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	}
}
