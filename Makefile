# Standard-library-only Go project; no tool dependencies beyond the
# toolchain itself.

GO ?= go

.PHONY: all build test test-purego race fuzz fuzz-kernels bench bench-smoke bench-selftest experiments-check vet vet-cross fmt testkit-check deps-check loc check ci cover clean report report-check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages on the classify path once more with the assembly
# kernels compiled out (-tags purego): the portable kernels — quant's
# Go nibble-image kernel, tensor's Dot-loop gather — must pass the same
# bit-identity, driver, serving and serializer tests the AVX2 and SSE
# kernels pass in `make test`, the testkit conformance table among them,
# and the simulator bridge (funcsim running compiled programs over
# image's DRAM images, compiler) holds the Go kernel to the functional
# DIMM over the same nibble image. The root package's Example outputs —
# the public pipeline's answers — must not change either.
test-purego:
	$(GO) test -tags purego . ./internal/quant ./internal/tensor ./internal/core ./internal/decode ./internal/distributed ./internal/server ./internal/testkit/... ./internal/image ./internal/funcsim ./internal/compiler

# Full race-enabled test run. Slower than `make test`; this is what
# `make check` gates on. It includes the in-process scenario tests of
# cmd/enmc-serve, cmd/enmc-shard and cmd/enmc-train (replica failover,
# hot swap, decode failover, observability, multi-tenant QoS, one-run
# registry publish).
race:
	$(GO) test -race ./...

# Every Fuzz* target in the module, one at a time (go test fuzzes one
# target per run), for 30 s each. `make test` runs only their seed
# corpora; this is the nightly pass that searches past them. A failing
# target writes its input under the package's testdata/fuzz/ and the
# pass goes on to the next target, failing at the end.
fuzz:
	@failed=; for dir in $$(grep -rl --include='*_test.go' --exclude-dir=bench '^func Fuzz' . | xargs -n1 dirname | sort -u); do \
		for target in $$(grep -ho '^func Fuzz[A-Za-z0-9_]*' $$dir/*_test.go | cut -d' ' -f2); do \
			echo "fuzz $$dir $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime 30s $$dir || failed="$$failed $$dir:$$target"; \
		done; \
	done; \
	if [ -n "$$failed" ]; then echo "fuzz failures:$$failed"; exit 1; fi

# The three fuzz targets that hold the assembly kernels to their Go
# references — quant's nibble-image GEMV (VNNI and AVX2 tiers) with its
# dequantization epilogue, tensor's row gather, and tensor's top-m
# select, whose bracket sweep is the SSE keep mask — past their seed
# corpora, 15 s each. Cheap enough for every push; `make fuzz` runs all
# targets nightly.
fuzz-kernels:
	$(GO) test -run '^$$' -fuzz '^FuzzMatVecPacked$$' -fuzztime 15s ./internal/quant
	$(GO) test -run '^$$' -fuzz '^FuzzMatVecRows$$' -fuzztime 15s ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzTopKSetInto$$' -fuzztime 15s ./internal/tensor

bench:
	$(GO) test -bench . -benchtime 100x -benchmem ./...

vet:
	$(GO) vet ./...

# go vet for two other platforms, so the files that build only on
# Linux (internal/tensor's huge-page advice) keep a portable twin that
# compiles.
vet-cross:
	GOOS=darwin GOARCH=arm64 $(GO) vet ./...
	GOOS=windows GOARCH=amd64 $(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# internal/testkit (the Prometheus parser, leak guard, fault transport,
# in-process fleet) is for _test.go files only: fail if any command or
# the root package links it.
testkit-check:
	@out="$$($(GO) list -deps ./cmd/... . | grep '^enmc/internal/testkit')"; \
	if [ -n "$$out" ]; then \
		echo "testkit linked into a binary or the root package:"; echo "$$out"; exit 1; \
	fi

# The serving binaries link serving code only: fail if enmc-serve or
# enmc-shard links a simulator or experiment package, or if one of
# those links a serving package. (experiments may link decode: the
# beam experiment runs the serving decode session.) They also never
# train — they load what enmc-train writes or publishes — so fail if
# `go tool nm` lists core.TrainScreener in either binary (both linked
# it, with workload.DemoScreener and core.ProjectedScreener, while
# they trained a demo model at boot).
SIMULATOR = dram isa enmc compiler energy nmp system funcsim image host cpuhost experiments
SERVING = server cluster registry tenant
deps-check:
	@sim="$$(echo $(SIMULATOR) | tr ' ' '|')"; serving="$$(echo $(SERVING) | tr ' ' '|')"; \
	out="$$($(GO) list -deps ./cmd/enmc-serve ./cmd/enmc-shard | grep -E "^enmc/internal/($$sim)$$")"; \
	if [ -n "$$out" ]; then \
		echo "simulator package linked into enmc-serve or enmc-shard:"; echo "$$out"; exit 1; \
	fi; \
	out="$$($(GO) list -f '{{.ImportPath}} {{join .Deps " "}}' $(addprefix ./internal/,$(SIMULATOR)) | \
		grep -E " enmc/internal/($$serving)( |$$)" | cut -d' ' -f1)"; \
	if [ -n "$$out" ]; then \
		echo "simulator package linking serving code:"; echo "$$out"; exit 1; \
	fi; \
	bin=$$(mktemp -d) && trap 'rm -rf "$$bin"' EXIT && \
	for cmd in enmc-serve enmc-shard; do \
		$(GO) build -o "$$bin/$$cmd" ./cmd/$$cmd && syms="$$($(GO) tool nm "$$bin/$$cmd")" || exit 1; \
		if echo "$$syms" | grep -q ' enmc/internal/core\.TrainScreener$$'; then \
			echo "$$cmd links core.TrainScreener: a serving binary loads a model, it never trains one"; exit 1; \
		fi; \
	done

# Non-test line counts (wc -l over the non-_test.go files) behind the
# three size exit lines in ROADMAP.md, so those numbers are computed,
# not hand-counted. It prints and gates nothing.
loc:
	@count() { find "$$@" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l; }; \
	echo "core+server+cluster+distributed+decode: $$(count internal/core internal/server internal/cluster internal/distributed internal/decode) (exit line 5650)"; \
	echo "internal/telemetry: $$(count internal/telemetry) (exit line 1650)"; \
	echo "cmd/*+internal/report: $$(count cmd internal/report) (exit line 1700)"

# Pre-commit gate: vet, formatting, and the race-enabled test suite.
check: vet fmt race
	@echo "check OK"

# What CI runs on every push/PR — the same gate as `make check` plus
# an explicit build, plain and purego test passes, the experiment
# tables and the stale-report gate, kept here so the CI workflow can't
# drift from the Makefile.
ci: vet vet-cross fmt testkit-check deps-check build test test-purego race bench-selftest experiments-check report-check
	@echo "ci OK"

# The repository benchmark (bench/, see BENCHMARK.json) is a nested
# module that `./...` does not reach, yet it imports internal/...: vet
# it and run its tiny-shape self-test so a change to those packages
# cannot break the benchmark unnoticed.
bench-selftest:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# Every table and figure EXPERIMENTS.md reports — each run in
# experiments.Registry — rerun and diffed against its output committed
# under internal/experiments/testdata/, timing line dropped
# (TestEveryRunHasGolden fails when a run has no golden). A change that
# moves one of their numbers fails here; one that means to regenerates
# the file with the same pipeline (`> internal/experiments/testdata/<run>.golden`).
EXPERIMENTS = $(basename $(notdir $(wildcard internal/experiments/testdata/*.golden)))
experiments-check:
	@bin=$$(mktemp -d) && trap 'rm -rf "$$bin"' EXIT && \
	$(GO) build -o "$$bin/enmc-bench" ./cmd/enmc-bench && \
	for run in $(EXPERIMENTS); do \
		"$$bin/enmc-bench" -run $$run | grep -v '^\[.* completed in .*\]$$' | \
			diff -u internal/experiments/testdata/$$run.golden - || exit 1; \
		echo "$$run matches internal/experiments/testdata/$$run.golden"; \
	done

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

clean:
	$(GO) clean ./...
