package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Prometheus text exposition (version 0.0.4) over the registry —
// hand-rolled like the rest of the package, zero dependencies. The
// dotted registry names ("cluster.shard_rpc_total") sanitize to the
// Prometheus grammar ("cluster_shard_rpc_total"); histograms render
// with cumulative buckets and an explicit +Inf bound; labels attach
// through LabeledName, which escapes values at registration time so
// the scrape path never re-parses.

// LabeledName encodes a metric name plus labels into the canonical
// registry-key form `name{k1="v1",k2="v2"}` (keys sorted, values
// escaped per the exposition grammar: \ → \\, " → \", newline → \n).
// Instruments registered under a LabeledName render as one labeled
// series of the base metric.
func LabeledName(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sanitizeMetricName(k))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the exposition-format label escapes.
func escapeLabelValue(v string) string { return labelEscaper.Replace(v) }

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// sanitizeMetricName maps an arbitrary instrument name onto the
// Prometheus name grammar [a-zA-Z_:][a-zA-Z0-9_:]* — dots (the
// registry's namespace separator) and anything else illegal become
// underscores, and a leading digit gets a '_' prefix.
func sanitizeMetricName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if i == 0 && r >= '0' && r <= '9' {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// splitLabeled splits a registry key back into (sanitized base name,
// label block including braces). The label block was canonicalized by
// LabeledName so it passes through verbatim.
func splitLabeled(key string) (base, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return sanitizeMetricName(key[:i]), key[i:]
	}
	return sanitizeMetricName(key), ""
}

// formatPromValue renders a sample value; strconv already spells the
// specials as the exposition format does (+Inf, -Inf, NaN).
func formatPromValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// mergeLabels splices extra pairs (pre-escaped, e.g. `le="0.5"`) into
// an existing canonical label block.
func mergeLabels(block string, extra string) string {
	if block == "" {
		return "{" + extra + "}"
	}
	return block[:len(block)-1] + "," + extra + "}"
}

type promSeries struct {
	labels string
	render func(w io.Writer, name, labels string) error
}

// WritePrometheus renders a registry snapshot in the Prometheus text
// exposition format: one # TYPE line per metric family, counters and
// gauges as single samples, histograms as cumulative _bucket series
// with a +Inf bound plus _sum and _count.
func WritePrometheus(w io.Writer, snap Snapshot) error {
	type family struct {
		typ    string
		series []promSeries
	}
	fams := map[string]*family{}
	add := func(key, typ string, render func(w io.Writer, name, labels string) error) {
		base, labels := splitLabeled(key)
		f := fams[base]
		if f == nil {
			f = &family{typ: typ}
			fams[base] = f
		}
		f.series = append(f.series, promSeries{labels: labels, render: render})
	}

	for key, v := range snap.Counters {
		add(key, "counter", func(w io.Writer, name, labels string) error {
			_, err := fmt.Fprintf(w, "%s%s %d\n", name, labels, v)
			return err
		})
	}
	for key, v := range snap.Gauges {
		add(key, "gauge", func(w io.Writer, name, labels string) error {
			_, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, formatPromValue(v))
			return err
		})
	}
	for key, h := range snap.Histograms {
		add(key, "histogram", func(w io.Writer, name, labels string) error {
			cum := int64(0)
			for _, b := range h.Buckets {
				cum += b.Count
				le := "+Inf"
				if !b.Overflow {
					le = formatPromValue(b.UpperBound)
				}
				lb := mergeLabels(labels, `le="`+le+`"`)
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, lb, cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatPromValue(h.Sum)); err != nil {
				return err
			}
			_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count)
			return err
		})
	}

	bases := make([]string, 0, len(fams))
	for b := range fams {
		bases = append(bases, b)
	}
	sort.Strings(bases)
	for _, base := range bases {
		f := fams[base]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, f.typ); err != nil {
			return err
		}
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		for _, s := range f.series {
			if err := s.render(w, base, s.labels); err != nil {
				return err
			}
		}
	}
	return nil
}

var processStart = time.Now()

// writeRuntimeMetrics appends Go runtime health (goroutines, GC, heap)
// and the build_info gauge — the standard scrape-side vitals every
// dashboard keys on, gathered at scrape time so they cost nothing
// between scrapes.
func writeRuntimeMetrics(w io.Writer) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rev := buildRevision()
	_, err := fmt.Fprintf(w,
		"# TYPE go_goroutines gauge\ngo_goroutines %d\n"+
			"# TYPE go_heap_alloc_bytes gauge\ngo_heap_alloc_bytes %d\n"+
			"# TYPE go_heap_objects gauge\ngo_heap_objects %d\n"+
			"# TYPE go_gc_cycles_total counter\ngo_gc_cycles_total %d\n"+
			"# TYPE go_gc_pause_seconds_total counter\ngo_gc_pause_seconds_total %s\n"+
			"# TYPE process_uptime_seconds gauge\nprocess_uptime_seconds %s\n"+
			"# TYPE enmc_build_info gauge\nenmc_build_info{go_version=\"%s\",revision=\"%s\"} 1\n",
		runtime.NumGoroutine(),
		ms.HeapAlloc,
		ms.HeapObjects,
		ms.NumGC,
		formatPromValue(float64(ms.PauseTotalNs)/1e9),
		formatPromValue(time.Since(processStart).Seconds()),
		escapeLabelValue(runtime.Version()),
		escapeLabelValue(rev))
	return err
}

func buildRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// PrometheusHandler serves reg in the text exposition format. The
// optional collect hooks run before each scrape — the SLO tracker
// uses one to publish its rolling-window gauges at scrape time
// instead of on every request.
func PrometheusHandler(reg *Registry, collect ...func()) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		for _, f := range collect {
			if f != nil {
				f()
			}
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WritePrometheus(w, reg.Snapshot()); err != nil {
			return // client went away mid-scrape; nothing to salvage
		}
		_ = writeRuntimeMetrics(w)
	})
}
