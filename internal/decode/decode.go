// Package decode is the streaming autoregressive serving layer: it
// turns the single-shot screening classifier into a decode service. A
// session lives for one stream: its owner opens it, runs it and closes
// it. It owns the decoder hidden state, an optional beam and a pooled
// core.Scratch.
//
// A scorer can also keep a hot-class candidate cache that packs the
// classes the screener keeps surviving into a compact arena —
// consecutive tokens share most of their candidate set, so the exact
// recompute can run over rows that are already cache-resident instead
// of gathering scattered rows of the full l×d matrix every step. The
// cache is off by default: a zero LocalScorerConfig has none (it
// measured speed-neutral, 0.97–0.98×), and only CacheSlots > 0 turns
// it on. Its deletion waits on ROADMAP item 9(a).
//
// The cache is a locality optimization, never a value approximation:
// cached logits are produced by the same deterministic dot-product
// kernel over byte-identical row copies, so cached decoding is
// bit-identical to uncached decoding by construction — and it is
// *verified*, not assumed: every VerifyEvery steps the session
// recomputes the candidate logits from the classifier and compares
// them bit-for-bit, resetting the cache on any mismatch.
package decode

import "enmc/internal/telemetry"

var (
	reg = telemetry.Default()

	mCacheHit       = reg.Counter("decode.cache_hit")
	mCacheMiss      = reg.Counter("decode.cache_miss")
	mCacheVerified  = reg.Counter("decode.cache_verified")
	mCacheVerifyBad = reg.Counter("decode.cache_verify_fail")

	mSessionsActive = reg.Gauge("decode.sessions_active")
	mSessionsOpened = reg.Counter("decode.sessions_opened")
	mSessionLimit   = reg.Counter("decode.session_limit")

	mTokens       = reg.Counter("decode.tokens_total")
	mTokenNs      = reg.Histogram("decode.token_ns", telemetry.LatencyBuckets())
	mDeadlineDown = reg.Counter("decode.deadline_degraded")
	mDeadlineMiss = reg.Counter("decode.deadline_miss")
)
