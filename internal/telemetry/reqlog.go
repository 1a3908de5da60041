package telemetry

import (
	"context"
	"io"
	"log/slog"
	"time"
)

// Structured request logging: one slog record per served request,
// carrying the correlation identity (request ID, trace ID), the
// serving outcome (status, latency, model version, shard fan-out
// result) and tenant-ready fields — the log line that lets a slow or
// failed request be chased across the fleet by quoting its ID.
//
// A nil *RequestLog is a valid receiver that records nothing, so the
// serving layer threads the pointer unconditionally and the
// logging-off path costs a nil check.

// RequestEvent is everything one request log record carries. Zero
// fields are omitted from the output.
type RequestEvent struct {
	RequestID string
	TraceID   string
	// Tenant is the caller's tenant, resolved from its API key.
	Tenant  string
	Method  string
	Path    string
	Status  int
	Outcome Outcome
	Latency time.Duration
	// Items is the number of classifications carried (batch size for
	// /v1/classify_batch, shard batch for /v1/shard/screen, else 1).
	Items int
	// BatchSize is the micro-batch the request was flushed in.
	BatchSize    int
	QueueNs      int64
	ModelVersion string
	Degraded     bool
	// MissingShards lists the shards a Partial answer was merged
	// without.
	MissingShards []int
	Err           string
}

// RequestLogOptions tunes NewRequestLog.
type RequestLogOptions struct {
	// JSON selects slog's JSON handler (one object per line); false
	// renders logfmt-style text.
	JSON bool
	// Slow is the latency threshold past which a request logs at
	// Warn (unless it logs at Error) with slow=true (0 disables slow
	// marking).
	Slow time.Duration
}

// RequestLog emits one structured record per request.
type RequestLog struct {
	l    *slog.Logger
	slow time.Duration
}

// NewRequestLog builds a request logger writing to w.
func NewRequestLog(w io.Writer, opts RequestLogOptions) *RequestLog {
	var h slog.Handler
	if opts.JSON {
		h = slog.NewJSONHandler(w, nil)
	} else {
		h = slog.NewTextHandler(w, nil)
	}
	return &RequestLog{l: slog.New(h), slow: opts.Slow}
}

// Log emits one request record. Severity comes from the outcome:
// Fault and Deadline log at Error; Shed, BadInput and slow requests at
// Warn; OK, Partial and CallerCancelled at Info.
func (l *RequestLog) Log(e RequestEvent) {
	if l == nil {
		return
	}
	level := slog.LevelInfo
	slow := l.slow > 0 && e.Latency >= l.slow
	switch e.Outcome {
	case Fault, Deadline:
		level = slog.LevelError
	case Shed, BadInput:
		level = slog.LevelWarn
	default:
		if slow {
			level = slog.LevelWarn
		}
	}
	attrs := make([]slog.Attr, 0, 16)
	attrs = append(attrs,
		slog.String("req_id", e.RequestID),
		slog.String("method", e.Method),
		slog.String("path", e.Path),
		slog.Int("status", e.Status),
		slog.String("outcome", e.Outcome.String()),
		slog.Int64("latency_us", e.Latency.Microseconds()),
	)
	if e.TraceID != "" {
		attrs = append(attrs, slog.String("trace_id", e.TraceID))
	}
	if e.Tenant != "" {
		attrs = append(attrs, slog.String("tenant", e.Tenant))
	}
	if e.Items > 0 {
		attrs = append(attrs, slog.Int("items", e.Items))
	}
	if e.BatchSize > 0 {
		attrs = append(attrs, slog.Int("batch", e.BatchSize))
	}
	if e.QueueNs > 0 {
		attrs = append(attrs, slog.Int64("queue_us", e.QueueNs/1e3))
	}
	if e.ModelVersion != "" {
		attrs = append(attrs, slog.String("model_version", e.ModelVersion))
	}
	if e.Degraded {
		attrs = append(attrs, slog.Bool("degraded", true))
	}
	if len(e.MissingShards) > 0 {
		attrs = append(attrs, slog.Any("missing_shards", e.MissingShards))
	}
	if slow {
		attrs = append(attrs, slog.Bool("slow", true))
	}
	if e.Err != "" {
		attrs = append(attrs, slog.String("error", e.Err))
	}
	l.l.LogAttrs(context.Background(), level, "request", attrs...)
}
