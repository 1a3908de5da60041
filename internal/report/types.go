// Package report is the benchmark-governance pipeline: it ingests the
// repo's perf-trajectory files (BENCH_*.json, appended by
// `enmc-bench -perf`) and load-test reports (`enmc-loadgen -log-json`),
// applies a validity gate (interleaved-pass counts, per-metric
// coefficient of variation, machine-fingerprint matching), and renders
// the committed BENCHMARK.md — a deterministic, regenerable document
// whose staleness CI can detect with a byte diff.
//
// The package owns the canonical schema of both input corpora so the
// producers (cmd/enmc-bench, the report parser) cannot drift apart.
package report

import "strconv"

// Metric name keys used in PerfResult.CV. Kept as constants so the
// gate, the renderer, and the bench harness agree on spelling.
const (
	MetricScreen       = "screen_ns_op"
	MetricClassify     = "classify_ns_op"
	MetricClassifyInto = "classify_into_ns_op"
	MetricBatch        = "batch_ns"
	MetricBatchScreen  = "batch_screen_ns"

	// Wire-codec metrics (`enmc-bench -wire` shapes): binary frame
	// and JSON encode/decode round trips of the cluster screen RPC.
	MetricWireEncode     = "wire_encode_ns_op"
	MetricWireDecode     = "wire_decode_ns_op"
	MetricWireJSONEncode = "wire_json_encode_ns_op"
	MetricWireJSONDecode = "wire_json_decode_ns_op"

	// Streaming-decode metrics (`enmc-bench -decode` shapes): one
	// screened autoregressive step, with and without the cross-step
	// candidate cache.
	MetricDecodeToken       = "decode_token_ns_op"
	MetricDecodeCachedToken = "decode_cached_token_ns_op"
)

// PerfSchemaVersion is the current BENCH_*.json record schema.
// Version history:
//
//	0 (field absent) — pre-governance records: min-over-passes timing
//	    only, no pass count, no noise statistics, no CPU model.
//	1 — adds passes, per-metric coefficient of variation across the
//	    interleaved passes, and the recording machine's CPU model.
const PerfSchemaVersion = 1

// PerfResult is the measured hot-path profile of one serving shape,
// one array element of a PerfRecord. ns/op values are the minimum
// over Passes interleaved timing passes (see cmd/enmc-bench/perf.go
// for why minimum, not mean).
type PerfResult struct {
	Shape            string  `json:"shape"`
	L                int     `json:"l"`
	D                int     `json:"d"`
	K                int     `json:"k"`
	M                int     `json:"m"`
	ScreenNsOp       float64 `json:"screen_ns_op"`
	ClassifyNsOp     float64 `json:"classify_ns_op"`
	ClassifyIntoNsOp float64 `json:"classify_into_ns_op"`
	AllocsOp         float64 `json:"allocs_op"` // steady-state ClassifyApproxInto
	BatchQPS         float64 `json:"batch_qps"` // ClassifyBatchVisitCtx, batch 8

	// Achieved screener weight traffic, from the bytes the dispatched
	// kernel streams (quant.Matrix.StreamBytes — the padded nibble
	// image plus a scale per row where the AVX2 kernel runs, Q at a
	// byte per weight plus scales elsewhere; records up to
	// BENCH_2026-08-06.json#5 counted the 16-bit-lane panels that
	// kernel read): one ScreenInto, and one ScreenBatchInto of batch 8
	// on one core, where a tile of items shares each stream. Absent on
	// records older than the field.
	ScreenStreamGBps float64 `json:"screen_stream_gbps,omitempty"`
	BatchStreamGBps  float64 `json:"batch_stream_gbps,omitempty"`

	// Wire-codec measurements (`enmc-bench -wire` shapes): one screen
	// RPC round trip's encode+decode cost and payload size in each
	// codec, request and response summed. A result carrying these is a
	// wire shape — it renders in its own trend table, not the kernel
	// one — and the Δ the acceptance bar cares about (binary vs JSON)
	// is computed WITHIN one row, so it stays valid even across
	// machine-fingerprint changes.
	WireEncodeNsOp     float64 `json:"wire_encode_ns_op,omitempty"`
	WireDecodeNsOp     float64 `json:"wire_decode_ns_op,omitempty"`
	WireJSONEncodeNsOp float64 `json:"wire_json_encode_ns_op,omitempty"`
	WireJSONDecodeNsOp float64 `json:"wire_json_decode_ns_op,omitempty"`
	WireBinaryBytes    int     `json:"wire_binary_bytes,omitempty"`
	WireJSONBytes      int     `json:"wire_json_bytes,omitempty"`

	// Streaming-decode measurements (`enmc-bench -decode` shapes): one
	// screened autoregressive decode step with the candidate cache off
	// and on, plus the quality/locality companions that make the cached
	// number interpretable — the measured cache hit rate and windowed
	// candidate overlap behind it, and the screened-vs-full agreement
	// BLEU of whole decoded sequences. A result carrying these is a
	// decode shape and renders in its own trend table; the Δ that
	// matters (cached vs uncached) is computed WITHIN one row, so it
	// survives machine-fingerprint changes.
	DecodeTokenNsOp       float64 `json:"decode_token_ns_op,omitempty"`
	DecodeCachedTokenNsOp float64 `json:"decode_cached_token_ns_op,omitempty"`
	DecodeCacheHitRate    float64 `json:"decode_cache_hit_rate,omitempty"`
	DecodeOverlap         float64 `json:"decode_overlap,omitempty"`
	DecodeAgreementBLEU   float64 `json:"decode_agreement_bleu,omitempty"`

	// Governance fields (schema >= 1).
	Passes int `json:"passes,omitempty"` // interleaved timing passes behind the minima

	// CV maps metric name (Metric* constants) to the coefficient of
	// variation (stddev/mean) of that metric's per-pass minima — the
	// run's own noise disclosure. A high CV means the pass minima
	// disagreed, i.e. the host was too noisy for the numbers to be
	// trusted as a trend point.
	CV map[string]float64 `json:"cv,omitempty"`
}

// IsWire reports whether the result is a wire-codec shape rather than
// a kernel shape; the renderer routes the two to different tables.
func (r PerfResult) IsWire() bool { return r.WireEncodeNsOp > 0 }

// IsDecode reports whether the result is a streaming-decode shape;
// like wire shapes, these render in their own trend table.
func (r PerfResult) IsDecode() bool { return r.DecodeTokenNsOp > 0 }

// PerfRecord is one `enmc-bench -perf` invocation. A trajectory file
// (BENCH_*.json) holds a JSON array of them, oldest first; the trend
// tables in BENCHMARK.md are these records in file order.
type PerfRecord struct {
	Schema     int          `json:"schema,omitempty"` // 0 = legacy pre-governance
	Date       string       `json:"date"`
	Label      string       `json:"label"`
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	CPUModel   string       `json:"cpu_model,omitempty"` // schema >= 1
	Results    []PerfResult `json:"results"`
}

// Fingerprint summarizes the machine/toolchain identity of a record.
// Two records are trend-comparable only when their fingerprints are
// equal: cross-machine ns/op ratios measure the machines, not the
// code. Legacy records (no CPU model recorded) compare only among
// themselves — an empty CPUModel never matches a recorded one.
func (r PerfRecord) Fingerprint() string {
	return r.GoVersion + "|" + strconv.Itoa(r.GOMAXPROCS) + "|" + r.CPUModel
}

// Comparable reports whether a trend ratio between two records is
// valid under the cross-machine rule.
func Comparable(a, b PerfRecord) bool {
	return a.Fingerprint() == b.Fingerprint()
}

// LoadSchemaV1 and LoadSchemaV2 are the accepted
// `enmc-loadgen -log-json` schema tags. The parser rejects any other
// value (including absence): a report whose schema we do not
// recognize could be silently misread, which is exactly what the
// version field exists to prevent. v2 adds bytes-on-wire accounting
// (bytes_out/bytes_in and wire MB/s, total and per target); v1
// reports remain ingestible — their wire columns render as absent.
const (
	LoadSchemaV1 = "enmc-loadgen/v1"
	LoadSchemaV2 = "enmc-loadgen/v2"
)

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

	// Wire accounting (schema v2): request/response bytes this target
	// moved and its aggregate throughput over the run.
	BytesOut     int64   `json:"bytes_out,omitempty"`
	BytesIn      int64   `json:"bytes_in,omitempty"`
	WireMBPerSec float64 `json:"wire_mb_per_sec,omitempty"`
}

// LoadReport is one `enmc-loadgen -log-json` document — the canonical
// schema shared with cmd/enmc-loadgen's encoder.
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

	// Wire accounting (schema v2): total request bytes sent, response
	// bytes received, and combined MB/s over the run — what makes the
	// JSON-vs-binary payload savings visible in the governed tables.
	BytesOut     int64   `json:"bytes_out,omitempty"`
	BytesIn      int64   `json:"bytes_in,omitempty"`
	WireMBPerSec float64 `json:"wire_mb_per_sec,omitempty"`

	// Decode is present only for `-decode` scenario runs (streaming
	// /v1/decode sessions). Additive: classify reports omit it, so
	// existing v2 documents are unchanged byte-for-byte.
	Decode *LoadDecode `json:"decode,omitempty"`

	// Tenants is present only for `-tenant-mix` runs: the per-tenant
	// QoS breakdown (who got served, who got throttled or shed, and at
	// what latency). Additive like Decode — single-tenant reports omit
	// it unchanged.
	Tenants []LoadTenant `json:"tenants,omitempty"`

	Targets []LoadTarget `json:"targets"`
}

// LoadTenant is one tenant's slice of a `-tenant-mix` loadgen run.
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

// LoadDecode is the streaming-session breakdown of a `-decode`
// loadgen run: session and token accounting plus the two latency
// distributions that matter for a token stream — time to first token
// and the inter-token gap.
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
