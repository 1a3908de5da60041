package main

// LoadSchemaV2 tags every -log-json document. The smoke scripts grep
// for it, so a change to the document's fields bumps the tag instead
// of being silently misread. v2 added bytes-on-wire accounting
// (bytes_out/bytes_in and wire MB/s, total and per target).
const LoadSchemaV2 = "enmc-loadgen/v2"

// LoadTarget is the per-target breakdown inside a loadgen report.
type LoadTarget struct {
	Target           string   `json:"target"`
	Requests         int      `json:"requests"`
	OK               int      `json:"ok"`
	Errors           int      `json:"errors"`
	Partial          int      `json:"partial"`
	WithRequestID    int      `json:"with_request_id"`
	SampleRequestIDs []string `json:"sample_request_ids,omitempty"`
	RetryAfter429    int      `json:"retry_after_429"`
	RetryAfterValues []string `json:"retry_after_values,omitempty"`
	P50Ms            float64  `json:"p50_ms,omitempty"`
	P99Ms            float64  `json:"p99_ms,omitempty"`

	// Wire accounting: request/response bytes this target moved and
	// its aggregate throughput over the run.
	BytesOut     int64   `json:"bytes_out,omitempty"`
	BytesIn      int64   `json:"bytes_in,omitempty"`
	WireMBPerSec float64 `json:"wire_mb_per_sec,omitempty"`
}

// LoadReport is one -log-json document.
type LoadReport struct {
	Schema          string         `json:"schema"`
	Scenario        string         `json:"scenario,omitempty"`
	Date            string         `json:"date,omitempty"`
	Requests        int            `json:"requests"`
	DurationSeconds float64        `json:"duration_seconds"`
	OK              int            `json:"ok"`
	Classifications int            `json:"classifications"`
	PerSecond       float64        `json:"classifications_per_sec"`
	Degraded        int            `json:"degraded"`
	Partial         int            `json:"partial"`
	Errors          map[string]int `json:"errors,omitempty"`
	P50Ms           float64        `json:"p50_ms,omitempty"`
	P90Ms           float64        `json:"p90_ms,omitempty"`
	P99Ms           float64        `json:"p99_ms,omitempty"`
	MaxMs           float64        `json:"max_ms,omitempty"`
	MaxSuccessGapMs float64        `json:"max_success_gap_ms"`

	// Wire accounting: total request bytes sent, response bytes
	// received, and combined MB/s over the run.
	BytesOut     int64   `json:"bytes_out,omitempty"`
	BytesIn      int64   `json:"bytes_in,omitempty"`
	WireMBPerSec float64 `json:"wire_mb_per_sec,omitempty"`

	// Decode is present only for -decode runs (streaming /v1/decode
	// sessions); classify reports omit it.
	Decode *LoadDecode `json:"decode,omitempty"`

	// Tenants is present only for -tenant-mix runs: the per-tenant QoS
	// breakdown (who got served, who got throttled or shed, and at what
	// latency). Single-tenant reports omit it.
	Tenants []LoadTenant `json:"tenants,omitempty"`

	Targets []LoadTarget `json:"targets"`
}

// LoadTenant is one tenant's slice of a -tenant-mix run.
// Status429/Status503 split the rejections the QoS layer hands out
// (quota/shed vs draining/backend), the split the qos-smoke asserts
// on: batch tenants absorb the 429s, interactive tenants see none.
type LoadTenant struct {
	Tenant   string `json:"tenant"`
	Class    string `json:"class,omitempty"`
	Weight   int    `json:"weight,omitempty"`
	Requests int    `json:"requests"`
	OK       int    `json:"ok"`

	Status429 int `json:"status_429"`
	Status503 int `json:"status_503"`
	// OtherErrors counts transport failures and any status outside
	// {200, 429, 503}.
	OtherErrors int `json:"other_errors,omitempty"`
	Degraded    int `json:"degraded,omitempty"`

	P50Ms float64 `json:"p50_ms,omitempty"`
	P99Ms float64 `json:"p99_ms,omitempty"`
}

// LoadDecode is the streaming-session breakdown of a -decode run:
// session and token accounting plus the two latency distributions
// that matter for a token stream — time to first token and the
// inter-token gap.
type LoadDecode struct {
	Sessions int `json:"sessions"`
	OK       int `json:"ok"`
	// DroppedStreams counts sessions whose stream ended without a
	// terminal done frame (transport cut mid-stream) — the number the
	// cluster failover smoke asserts is zero.
	DroppedStreams int     `json:"dropped_streams"`
	Evicted        int     `json:"evicted"`
	Tokens         int     `json:"tokens"`
	TokensPerSec   float64 `json:"tokens_per_sec"`

	TokensPerSessionMean float64 `json:"tokens_per_session_mean"`
	TokensPerSessionMin  int     `json:"tokens_per_session_min"`
	TokensPerSessionMax  int     `json:"tokens_per_session_max"`

	TTFTP50Ms float64 `json:"ttft_p50_ms"`
	TTFTP90Ms float64 `json:"ttft_p90_ms"`
	TTFTP99Ms float64 `json:"ttft_p99_ms"`
	TTFTMaxMs float64 `json:"ttft_max_ms"`

	GapP50Ms float64 `json:"gap_p50_ms"`
	GapP99Ms float64 `json:"gap_p99_ms"`
	GapMaxMs float64 `json:"gap_max_ms"`
}
