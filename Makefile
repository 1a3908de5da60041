# Standard-library-only Go project; no tool dependencies beyond the
# toolchain itself.

GO ?= go

.PHONY: all build test test-purego race bench bench-smoke bench-selftest decode-smoke vet fmt check ci cover clean swap-smoke cluster-smoke metrics-smoke qos-smoke train-checkpoint report report-check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages on the classify path once more with the assembly
# kernels compiled out (-tags purego): the scalar fallbacks — quant's
# blocked screen, tensor's Dot-loop gather — must pass the same
# bit-identity, driver, serving and serializer tests the AVX2 and SSE
# kernels pass in `make test`.
test-purego:
	$(GO) test -tags purego ./internal/quant ./internal/tensor ./internal/core ./internal/decode ./internal/distributed ./internal/server

# Full race-enabled test run. Slower than `make test`; this is what
# `make check` gates on.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 100x -benchmem ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Pre-commit gate: vet, formatting, and the race-enabled test suite.
check: vet fmt race
	@echo "check OK"

# What CI runs on every push/PR — the same gate as `make check` plus
# an explicit build, plain and purego test passes and the stale-report
# gate, kept here so the CI workflow can't drift from the Makefile.
ci: vet fmt build test test-purego race bench-selftest report-check
	@echo "ci OK"

# The repository benchmark (bench/, see BENCHMARK.json) is a nested
# module that `./...` does not reach, yet it imports internal/...: vet
# it and run its tiny-shape self-test so a change to those packages
# cannot break the benchmark unnoticed.
bench-selftest:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# One-iteration benchmark pass: compiles and runs every benchmark
# once so perf regressions are at least visible per-PR (CI uploads
# bench-smoke.txt as an artifact).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./... | tee bench-smoke.txt

# Benchmark governance (see BENCHMARKING.md): regenerate the committed
# BENCHMARK.md from the repository benchmark's record sets under
# benchdata/gate/ after the gate admits them. report-check is the CI
# stale gate: it fails when the committed report differs from a fresh
# rendering or when the gate rejects the corpus.
report:
	$(GO) run ./cmd/enmc-report -out BENCHMARK.md

report-check:
	$(GO) run ./cmd/enmc-report -out BENCHMARK.md -check

# Coverage gate over the tier-1 packages. CI passes COVER_FLOOR so
# the recorded baseline lives in .github/workflows/ci.yml; locally
# the default floor of 0 just prints the total.
COVER_FLOOR ?= 0
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (floor: $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }'

# Hot-swap smoke: serve a registry version under sustained loadgen
# traffic while triggering two reloads — one passing the canary gate,
# one failing it (plus a corrupted-artifact reload) — and fail on any
# non-200 caused by the swaps. The end-to-end proof of the
# zero-downtime model lifecycle (internal/registry + Swappable).
swap-smoke:
	bash scripts/swap_smoke.sh

# Cluster smoke: 3 enmc-shard workers x 2 replicas behind the
# enmc-serve scatter-gather router under loadgen. SIGKILLs one
# replica (traffic must stay clean and non-partial), then both
# replicas of one shard (responses must degrade to partial:true with
# that shard listed, never non-200), then restarts them (full merges
# must resume). The end-to-end proof of the networked serving
# topology (internal/cluster + cmd/enmc-shard).
cluster-smoke:
	bash scripts/cluster_smoke.sh

# Decode smoke: streaming /v1/decode end-to-end. Phase 1 drives
# greedy and beam sessions (NDJSON and SSE) against a single-node
# server under loadgen with zero tolerance for errors or cut streams.
# Phase 2 rebuilds the 3x2 cluster topology with -decode on the
# router, SIGKILLs a replica mid-session, and asserts every in-flight
# stream survived (failover re-pins, cluster_session_repin > 0 on
# /metrics, zero dropped streams).
decode-smoke:
	bash scripts/decode_smoke.sh

# Observability smoke: the same 3x2 cluster with tracing and JSON
# request logs on, under loadgen. Scrapes /metrics on the router and
# every shard replica and lints the exposition with enmc-promlint
# (the telemetry package's own parser), asserts the shard-RPC counter
# and request histograms advanced, that every response echoed
# X-Request-Id, and that /debug/spans holds one propagated trace with
# spans from >= 2 processes.
metrics-smoke:
	bash scripts/metrics_smoke.sh

# Multi-tenant QoS smoke: one server, an interactive tenant and a
# saturating batch tenant driven concurrently. Asserts the batch
# class absorbs >= 95% of shed/degrade/throttle pressure (per-tenant
# labeled counters on /metrics) while the interactive tenant sees
# zero 429/5xx and a bounded p99; flips a quota via SIGHUP
# tenant-config reload mid-load with zero dropped in-flight requests;
# and proves two model versions (active + tenant-pinned) serve from
# one process. The end-to-end proof of internal/tenant + the
# weighted-fair batcher.
qos-smoke:
	bash scripts/qos_smoke.sh

# Checkpoint/resume demo: interrupt a registry training run
# (-stop-after), resume it from the checkpoint, and verify the
# version publishes atomically with the checkpoint cleaned up.
train-checkpoint:
	bash scripts/train_checkpoint_demo.sh

clean:
	$(GO) clean ./...
