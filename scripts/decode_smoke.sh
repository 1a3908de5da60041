#!/usr/bin/env bash
# Streaming-decode smoke test: POST /v1/decode end-to-end —
#
#   phase 1 (single node)  -> greedy + beam sessions over NDJSON under
#                             loadgen (zero errors, zero cut streams),
#                             plus one SSE session checked frame by
#                             frame and a session-cap 429 probe
#   phase 2 (3x2 cluster)  -> -decode on the router (per-token scatter
#                             with session affinity), SIGKILL one
#                             replica mid-session: every in-flight
#                             stream must survive via failover re-pin
#                             (cluster_session_repin > 0 on /metrics,
#                             zero dropped streams)
#
# Exercises: session create/stream/auto-close, beam decoding, SSE and
# NDJSON framing, the 429 admission path, the cluster decode scorer's
# sticky replica pin and its failover re-pin under SIGKILL.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
PIDS=()
# When SMOKE_ARTIFACTS names a directory, the loadgen JSON reports
# land there, where CI uploads them as artifacts.
ART="${SMOKE_ARTIFACTS:-}"
if [ -n "$ART" ]; then
    mkdir -p "$ART"
    ART="$(cd "$ART" && pwd)" # scripts cd around; artifact dir must stay absolute
fi
DUR_MAIN="${SMOKE_DURATION:-6s}"
DUR_POST="${SMOKE_DURATION:-3s}"
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

# Same deterministic demo model as the cluster smoke: the single-node
# server trains it locally; in phase 2 every worker regenerates it
# from the same seed and the router regenerates the decoder dynamics
# from matching -demo-* flags.
CLASSES=480
DIM=64

echo "== building =="
cd "$ROOT"
go build -o "$WORK/enmc-shard" ./cmd/enmc-shard
go build -o "$WORK/enmc-serve" ./cmd/enmc-serve
go build -o "$WORK/enmc-loadgen" ./cmd/enmc-loadgen
cd "$WORK"

wait_port() { # wait_port <file> <what>
    for _ in $(seq 1 200); do
        [ -s "$1" ] && return 0
        sleep 0.1
    done
    echo "FAIL: $2 never wrote its port file"; exit 1
}

echo "== phase 1: single-node decode =="
./enmc-serve -decode -demo-classes "$CLASSES" -demo-dim "$DIM" -epochs 3 \
    -decode-maxlen 24 \
    -addr 127.0.0.1:0 -port-file "$WORK/port-serve-local" \
    >"$WORK/serve-local.log" 2>&1 &
SERVE_LOCAL_PID=$!
PIDS+=("$SERVE_LOCAL_PID")
wait_port "$WORK/port-serve-local" "enmc-serve (local)"
PORT="$(cat "$WORK/port-serve-local")"
BASE="http://127.0.0.1:$PORT"
echo "   serving on $BASE"

VEC="$(seq 1 "$DIM" | awk '{printf "%s0.%02d", (NR>1?",":""), $1%100}')"

echo "-- SSE session: token frames then a done frame"
curl -s -N -X POST -H 'Content-Type: application/json' \
    -d "{\"h0\":[$VEC],\"max_tokens\":5}" "$BASE/v1/decode" >"$WORK/sse.txt"
tok="$(grep -c '^event: token' "$WORK/sse.txt" || true)"
[ "$tok" = "5" ] || { cat "$WORK/sse.txt"; echo "FAIL: SSE session streamed $tok token frames, want 5"; exit 1; }
grep -q '^event: done' "$WORK/sse.txt" || { cat "$WORK/sse.txt"; echo "FAIL: SSE session never sent its done frame"; exit 1; }

echo "-- greedy loadgen (NDJSON, closed loop; zero errors, zero cut streams)"
if ! ./enmc-loadgen -addr "127.0.0.1:$PORT" -dim "$DIM" -decode -duration "$DUR_MAIN" \
    -concurrency 4 -fail-on-error -fail-on-dropped >"$WORK/loadgen-greedy.log" 2>&1; then
    cat "$WORK/loadgen-greedy.log"
    echo "FAIL: single-node greedy decode load produced errors or dropped streams"
    exit 1
fi
grep -E "ok:|ttft" "$WORK/loadgen-greedy.log" || true

echo "-- beam loadgen (width 4)"
if ! ./enmc-loadgen -addr "127.0.0.1:$PORT" -dim "$DIM" -decode -decode-mode beam -decode-width 4 \
    -duration "$DUR_POST" -concurrency 4 -fail-on-error -fail-on-dropped \
    -log-json -scenario decode-serve >"$WORK/loadgen-decode.json" 2>"$WORK/loadgen-beam.err"; then
    cat "$WORK/loadgen-decode.json" "$WORK/loadgen-beam.err"
    echo "FAIL: single-node beam decode load produced errors or dropped streams"
    exit 1
fi
grep -o '"tokens": [0-9]*' "$WORK/loadgen-decode.json" | head -1 || true
if [ -n "$ART" ]; then
    cp "$WORK/loadgen-decode.json" "$ART/decode-serve_$(date -u +%Y-%m-%d).json"
    echo "   loadgen report -> $ART/decode-serve_$(date -u +%Y-%m-%d).json"
fi

echo "-- session-cap probe: a tiny-cap server must answer 429 + Retry-After"
./enmc-serve -decode -demo-classes "$CLASSES" -demo-dim "$DIM" -epochs 3 \
    -decode-max-sessions 1 -decode-ttl 30s -decode-maxlen 24 \
    -addr 127.0.0.1:0 -port-file "$WORK/port-serve-cap" \
    >"$WORK/serve-cap.log" 2>&1 &
PIDS+=("$!")
wait_port "$WORK/port-serve-cap" "enmc-serve (session cap)"
CAP_PORT="$(cat "$WORK/port-serve-cap")"
# Open one session and decode a single token of its 24 — unfinished,
# so it holds its slot (idling under the 30s TTL, not auto-closed)...
curl -s -N -X POST -H 'Content-Type: application/json' \
    -d "{\"h0\":[$VEC],\"max_tokens\":1,\"stream\":\"ndjson\"}" \
    "http://127.0.0.1:$CAP_PORT/v1/decode" >/dev/null
# ...then try to open a second: the cap of 1 must refuse it.
code="$(curl -s -o "$WORK/cap.json" -D "$WORK/cap.hdr" -w '%{http_code}' \
    -X POST -H 'Content-Type: application/json' \
    -d "{\"h0\":[$VEC],\"max_tokens\":1}" \
    "http://127.0.0.1:$CAP_PORT/v1/decode")"
[ "$code" = "429" ] || { cat "$WORK/cap.json"; echo "FAIL: over-cap session got HTTP $code, want 429"; exit 1; }
grep -qi '^Retry-After:' "$WORK/cap.hdr" || { cat "$WORK/cap.hdr"; echo "FAIL: 429 without Retry-After"; exit 1; }
echo "   over-cap session refused with 429 + Retry-After"

kill "$SERVE_LOCAL_PID" 2>/dev/null || true

echo "== phase 2: 3x2 cluster decode with mid-session replica SIGKILL =="
start_shard() { # start_shard <shard-idx> <replica-name>
    local idx=$1 rep=$2
    rm -f "$WORK/port-$idx-$rep"
    ./enmc-shard -shard-index "$idx" -shard-count 3 \
        -demo-classes "$CLASSES" -demo-dim "$DIM" -epochs 3 \
        -addr 127.0.0.1:0 -port-file "$WORK/port-$idx-$rep" \
        >>"$WORK/shard-$idx-$rep.log" 2>&1 &
    local pid=$!
    PIDS+=("$pid")
    eval "SHARD_${idx}_${rep}_PID=$pid"
}
for idx in 0 1 2; do
    for rep in a b; do
        start_shard "$idx" "$rep"
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

./enmc-serve -cluster "$SPEC" -cluster-health-interval 100ms \
    -decode -demo-classes "$CLASSES" -demo-dim "$DIM" -decode-maxlen 24 \
    -addr 127.0.0.1:0 -port-file "$WORK/port-serve-cluster" \
    -debug-addr 127.0.0.1:0 -debug-port-file "$WORK/port-debug" \
    >"$WORK/serve-cluster.log" 2>&1 &
PIDS+=("$!")
wait_port "$WORK/port-serve-cluster" "enmc-serve (cluster)"
wait_port "$WORK/port-debug" "enmc-serve debug listener"
CPORT="$(cat "$WORK/port-serve-cluster")"
DPORT="$(cat "$WORK/port-debug")"
echo "   routing on http://127.0.0.1:$CPORT (metrics on :$DPORT)"

echo "-- decode loadgen under SIGKILL of shard 0 replica b (streams must survive)"
./enmc-loadgen -addr "127.0.0.1:$CPORT" -dim "$DIM" -decode -duration "$DUR_MAIN" \
    -concurrency 4 -timeout 30s -fail-on-error -fail-on-dropped \
    -log-json -scenario decode-cluster-3x2 \
    >"$WORK/loadgen-cluster.json" 2>"$WORK/loadgen-cluster.err" &
LOADGEN_PID=$!
sleep 2
echo "-- SIGKILL shard 0 replica b (pid $SHARD_0_b_PID)"
kill -9 "$SHARD_0_b_PID" 2>/dev/null || true
if ! wait "$LOADGEN_PID"; then
    cat "$WORK/loadgen-cluster.json" "$WORK/loadgen-cluster.err"
    echo "FAIL: killing one replica dropped or failed decode streams"
    exit 1
fi
grep -o '"dropped_streams": [0-9]*' "$WORK/loadgen-cluster.json" | head -1 || true
if [ -n "$ART" ]; then
    cp "$WORK/loadgen-cluster.json" "$ART/decode-cluster-3x2_$(date -u +%Y-%m-%d).json"
    echo "   loadgen report -> $ART/decode-cluster-3x2_$(date -u +%Y-%m-%d).json"
fi

echo "-- /metrics: failover must have re-pinned at least one session"
curl -s "http://127.0.0.1:$DPORT/metrics" >"$WORK/metrics.txt"
repin="$(awk '/^cluster_session_repin /{print $2}' "$WORK/metrics.txt")"
[ -n "$repin" ] || { echo "FAIL: cluster_session_repin not exposed on /metrics"; exit 1; }
[ "$repin" -gt 0 ] || { echo "FAIL: cluster_session_repin is $repin, want > 0 after replica SIGKILL"; exit 1; }
echo "   cluster_session_repin = $repin"

echo "decode-smoke OK: SSE+NDJSON sessions clean, beam clean, 429 admission enforced, replica SIGKILL re-pinned ($repin) with zero dropped streams"
