#!/usr/bin/env bash
# Metrics/observability smoke test: 3 enmc-shard workers × 2 replicas
# behind an enmc-serve cluster router with tracing on, under loadgen —
#
#   scrape /metrics on the router AND every shard replica -> must
#       parse and validate as Prometheus text exposition 0.0.4
#       (checked by enmc-promlint, which reuses the telemetry
#       package's own parser), with the shard-RPC counter and the
#       request latency histograms advanced by the load
#   loadgen -log-json                 -> every response echoed an
#       X-Request-Id (the report's with_request_id must equal ok+err
#       counts per target)
#   capture /debug/spans              -> one propagated trace ID must
#       have spans from >= 2 process lanes (router PID 0 + shards),
#       i.e. the trace context crossed process boundaries and merged
#       into one Perfetto-loadable capture
#
# Exercises: Prometheus exposition on both binaries under live load,
# request-ID echo end to end, distributed trace propagation
# router->shard->router, and the structured loadgen report.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
PIDS=()
# Benchmark governance: with SMOKE_ARTIFACTS set, the loadgen JSON
# report and the captured Perfetto trace are copied there (enmc-report
# ingestion / CI artifact upload). SMOKE_DURATION stretches the load
# for nightly full-length passes.
ART="${SMOKE_ARTIFACTS:-}"
if [ -n "$ART" ]; then
    mkdir -p "$ART"
    ART="$(cd "$ART" && pwd)" # scripts cd around; artifact dir must stay absolute
fi
DUR="${SMOKE_DURATION:-5s}"
cleanup() {
    for pid in ${PIDS[@]+"${PIDS[@]}"}; do
        kill "$pid" 2>/dev/null || true
    done
    for pid in ${PIDS[@]+"${PIDS[@]}"}; do
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

# Small deterministic demo model: every worker regenerates the same
# global classifier from the same seed, so the shards tile one model.
CLASSES=480
DIM=64

echo "== building =="
cd "$ROOT"
go build -o "$WORK/enmc-shard" ./cmd/enmc-shard
go build -o "$WORK/enmc-serve" ./cmd/enmc-serve
go build -o "$WORK/enmc-loadgen" ./cmd/enmc-loadgen
go build -o "$WORK/enmc-promlint" ./cmd/enmc-promlint
cd "$WORK"

wait_port() { # wait_port <file> <what>
    for _ in $(seq 1 200); do
        [ -s "$1" ] && return 0
        sleep 0.1
    done
    echo "FAIL: $2 never wrote its port file"; exit 1
}

echo "== starting 3 shards x 2 replicas (request logs on, JSON) =="
for idx in 0 1 2; do
    for rep in a b; do
        rm -f "$WORK/port-$idx-$rep"
        ./enmc-shard -shard-index "$idx" -shard-count 3 \
            -demo-classes "$CLASSES" -demo-dim "$DIM" -epochs 3 \
            -log-json -addr 127.0.0.1:0 -port-file "$WORK/port-$idx-$rep" \
            >>"$WORK/shard-$idx-$rep.log" 2>&1 &
        PIDS+=("$!")
    done
done
for idx in 0 1 2; do
    for rep in a b; do
        wait_port "$WORK/port-$idx-$rep" "shard $idx replica $rep"
        eval "PORT_${idx}_${rep}=$(cat "$WORK/port-$idx-$rep")"
    done
done

SPEC="127.0.0.1:$PORT_0_a,127.0.0.1:$PORT_0_b;127.0.0.1:$PORT_1_a,127.0.0.1:$PORT_1_b;127.0.0.1:$PORT_2_a,127.0.0.1:$PORT_2_b"
echo "   shard map: $SPEC"

echo "== starting enmc-serve router (tracing + JSON request log) =="
./enmc-serve -cluster "$SPEC" -cluster-health-interval 100ms \
    -trace -log-json -slow-log 100ms \
    -addr 127.0.0.1:0 -port-file "$WORK/port-serve" \
    -debug-addr 127.0.0.1:0 -debug-port-file "$WORK/port-debug" \
    >"$WORK/serve.log" 2>"$WORK/serve.reqlog" &
PIDS+=("$!")
wait_port "$WORK/port-serve" "enmc-serve"
wait_port "$WORK/port-debug" "enmc-serve debug listener"
PORT="$(cat "$WORK/port-serve")"
DEBUG_PORT="$(cat "$WORK/port-debug")"
BASE="http://127.0.0.1:$PORT"
echo "   routing on $BASE (debug on :$DEBUG_PORT)"

echo "== loadgen with JSON report =="
./enmc-loadgen -addr "127.0.0.1:$PORT" -dim "$DIM" -duration "$DUR" -concurrency 4 \
    -fail-on-error -log-json -scenario cluster-3x2-observability \
    >"$WORK/loadgen.json" 2>&1 || {
    cat "$WORK/loadgen.json"; echo "FAIL: loadgen reported errors"; exit 1; }
grep -q '"schema": "enmc-loadgen/v2"' "$WORK/loadgen.json" || {
    echo "FAIL: loadgen report carries no schema tag"; exit 1; }

OK=$(grep -o '"ok": [0-9]*' "$WORK/loadgen.json" | head -1 | awk '{print $2}')
REQS=$(grep -o '"requests": [0-9]*' "$WORK/loadgen.json" | head -1 | awk '{print $2}')
WITH_ID=$(grep -o '"with_request_id": [0-9]*' "$WORK/loadgen.json" | awk '{s+=$2} END{print s}')
echo "   loadgen: $OK/$REQS ok, $WITH_ID responses carried X-Request-Id"
[ "${OK:-0}" -gt 0 ] || { cat "$WORK/loadgen.json"; echo "FAIL: no successful requests"; exit 1; }
[ "${WITH_ID:-0}" -eq "$REQS" ] || {
    cat "$WORK/loadgen.json"
    echo "FAIL: only $WITH_ID/$REQS responses echoed X-Request-Id"; exit 1; }

echo "== scraping router /metrics (must parse, validate, and have advanced) =="
./enmc-promlint -metrics "$BASE/metrics" \
    -require "cluster_shard_rpc_total,server_http_requests,server_http_classify_ns,server_queue_wait_ns,slo_requests_window"

echo "== scraping every shard replica /metrics =="
for idx in 0 1 2; do
    for rep in a b; do
        eval "port=\$PORT_${idx}_${rep}"
        ./enmc-promlint -metrics "http://127.0.0.1:$port/metrics" \
            -require "cluster_worker_screen_requests,cluster_worker_traced_requests,go_goroutines"
    done
done

echo "== capturing a propagated distributed trace =="
curl -sf "http://127.0.0.1:$DEBUG_PORT/debug/spans" >"$WORK/trace.json"
./enmc-promlint -spans "$WORK/trace.json" -min-pids 2

if [ -n "$ART" ]; then
    # Traces live in a subdirectory so the report tool's
    # <artifacts>/*.json loadgen glob never tries to parse one.
    mkdir -p "$ART/traces"
    cp "$WORK/loadgen.json" "$ART/cluster-3x2-observability_$(date -u +%Y-%m-%d).json"
    cp "$WORK/trace.json" "$ART/traces/cluster-3x2_$(date -u +%Y-%m-%d).perfetto.json"
    echo "   artifacts -> $ART (loadgen report + Perfetto trace)"
fi

echo "== structured request logs flowed on router and shards =="
grep -q '"req_id"' "$WORK/serve.reqlog" || {
    head -5 "$WORK/serve.reqlog"; echo "FAIL: router emitted no JSON request log"; exit 1; }
grep -q '"trace_id"' "$WORK/serve.reqlog" || {
    echo "FAIL: router request log carries no trace IDs"; exit 1; }
grep -hq '"req_id"' "$WORK"/shard-*.log || {
    echo "FAIL: no shard emitted a JSON request log"; exit 1; }

echo "== GET /v1/slo reports the rolling window =="
curl -sf "$BASE/v1/slo" >"$WORK/slo.json"
grep -q '"endpoint": *"/v1/classify"' "$WORK/slo.json" || grep -q '"/v1/classify"' "$WORK/slo.json" || {
    cat "$WORK/slo.json"; echo "FAIL: SLO summary missing /v1/classify"; exit 1; }

echo "metrics-smoke OK: exposition valid on router + 6 replicas, counters advanced, request IDs echoed on every response, one trace spans >= 2 processes, request logs structured"
