#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments from the checkout's root. Everything the build
# writes (binary, Go build and module caches, temporary files, the
# toolchain's telemetry counters) stays under .bench_build/, which
# .gitignore names.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# No user-level Go configuration, workspace, proxy or toolchain download
# can change what gets built.
(
	cd "$here"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
	export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
	go build -o "$build/enmc-bench" .
)
cd "$root"
exec "$build/enmc-bench" "$@"
