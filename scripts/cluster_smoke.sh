#!/usr/bin/env bash
# Cluster smoke test: 3 enmc-shard workers × 2 replicas behind an
# enmc-serve cluster router, under loadgen traffic —
#
#   SIGKILL one replica mid-run      -> zero non-200s, partial:false
#                                       (failover absorbs the loss)
#   SIGKILL BOTH replicas of shard 1 -> still HTTP 200, but
#                                       partial:true + missing_shards:[1]
#                                       (degrade, don't fail)
#   restart shard 1's replicas       -> partial:false again, loadgen
#                                       clean (recovery needs no probe
#                                       round-trip: ejection only
#                                       reorders failover)
#
# Exercises: multi-process shard bring-up from one deterministic demo
# model, router Dial/geometry validation, replica failover under
# SIGKILL, partial-failure degradation with the missing shard listed,
# and re-admission after restart.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
PIDS=()
# When SMOKE_ARTIFACTS names a directory, the loadgen JSON report
# lands there, where CI uploads it as an artifact. SMOKE_DURATION
# stretches the loadgen runs for nightly full-length passes.
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

# Small deterministic demo model: every worker regenerates the same
# global classifier from the same seed, so the shards tile one model.
CLASSES=480
DIM=64

echo "== building =="
cd "$ROOT"
go build -o "$WORK/enmc-shard" ./cmd/enmc-shard
go build -o "$WORK/enmc-serve" ./cmd/enmc-serve
go build -o "$WORK/enmc-loadgen" ./cmd/enmc-loadgen
cd "$WORK"

start_shard() { # start_shard <shard-idx> <replica-name> <addr>
    local idx=$1 rep=$2 addr=$3
    rm -f "$WORK/port-$idx-$rep"
    ./enmc-shard -shard-index "$idx" -shard-count 3 \
        -demo-classes "$CLASSES" -demo-dim "$DIM" -epochs 3 \
        -addr "$addr" -port-file "$WORK/port-$idx-$rep" \
        >>"$WORK/shard-$idx-$rep.log" 2>&1 &
    local pid=$!
    PIDS+=("$pid")
    eval "SHARD_${idx}_${rep}_PID=$pid"
}

wait_port() { # wait_port <file> <what>
    for _ in $(seq 1 200); do
        [ -s "$1" ] && return 0
        sleep 0.1
    done
    echo "FAIL: $2 never wrote its port file"; exit 1
}

echo "== starting 3 shards x 2 replicas =="
for idx in 0 1 2; do
    for rep in a b; do
        start_shard "$idx" "$rep" 127.0.0.1:0
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

echo "== starting enmc-serve router =="
./enmc-serve -cluster "$SPEC" -cluster-health-interval 100ms \
    -addr 127.0.0.1:0 -port-file "$WORK/port-serve" \
    >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!
PIDS+=("$SERVE_PID")
wait_port "$WORK/port-serve" "enmc-serve"
PORT="$(cat "$WORK/port-serve")"
BASE="http://127.0.0.1:$PORT"
echo "   routing on $BASE"

VEC="$(seq 1 "$DIM" | awk '{printf "%s0.%02d", (NR>1?",":""), $1%100}')"
classify() { # -> echoes HTTP status; body lands in $WORK/resp.json
    curl -s -o "$WORK/resp.json" -w '%{http_code}' \
        -X POST -H 'Content-Type: application/json' \
        -d "{\"h\":[$VEC],\"top_k\":3}" "$BASE/v1/classify"
}

echo "-- warm check: full merge, partial:false"
code="$(classify)"
[ "$code" = "200" ] || { cat "$WORK/resp.json"; echo "FAIL: warm classify got HTTP $code"; exit 1; }
grep -q '"partial":false' "$WORK/resp.json" || { echo "FAIL: warm response not full: $(cat "$WORK/resp.json")"; exit 1; }

echo "== phase 1: SIGKILL one replica under traffic (must stay clean) =="
./enmc-loadgen -addr "127.0.0.1:$PORT" -dim "$DIM" -duration "$DUR_MAIN" -concurrency 4 \
    -fail-on-error -fail-on-partial >"$WORK/loadgen1.log" 2>&1 &
LOADGEN_PID=$!
sleep 2
echo "-- SIGKILL shard 0 replica b (pid $SHARD_0_b_PID)"
kill -9 "$SHARD_0_b_PID" 2>/dev/null || true
if ! wait "$LOADGEN_PID"; then
    cat "$WORK/loadgen1.log"
    echo "FAIL: killing one replica caused failed or partial responses"
    exit 1
fi
grep -E "ok:|errors:" "$WORK/loadgen1.log" || true

echo "== phase 2: SIGKILL both replicas of shard 1 (must degrade to partial) =="
kill -9 "$SHARD_1_a_PID" "$SHARD_1_b_PID" 2>/dev/null || true
sleep 0.5
code="$(classify)"
[ "$code" = "200" ] || { cat "$WORK/resp.json"; echo "FAIL: dead shard turned into HTTP $code, want degraded 200"; exit 1; }
grep -q '"partial":true' "$WORK/resp.json" || { echo "FAIL: dead shard not flagged partial: $(cat "$WORK/resp.json")"; exit 1; }
grep -q '"missing_shards":\[1\]' "$WORK/resp.json" || { echo "FAIL: missing shard list wrong: $(cat "$WORK/resp.json")"; exit 1; }
echo "-- degraded correctly: $(grep -o '"partial":true,"missing_shards":\[1\]' "$WORK/resp.json")"

echo "== phase 3: restart shard 1 replicas (must recover to full merges) =="
start_shard 1 a "127.0.0.1:$PORT_1_a"
start_shard 1 b "127.0.0.1:$PORT_1_b"
wait_port "$WORK/port-1-a" "restarted shard 1 replica a"
wait_port "$WORK/port-1-b" "restarted shard 1 replica b"
recovered=""
for _ in $(seq 1 100); do
    code="$(classify)"
    if [ "$code" = "200" ] && grep -q '"partial":false' "$WORK/resp.json"; then
        recovered=yes
        break
    fi
    sleep 0.2
done
[ -n "$recovered" ] || { echo "FAIL: cluster never recovered after restart: $(cat "$WORK/resp.json")"; exit 1; }

echo "-- post-recovery loadgen (must stay clean; JSON report)"
if ! ./enmc-loadgen -addr "127.0.0.1:$PORT" -dim "$DIM" -duration "$DUR_POST" -concurrency 4 \
    -fail-on-error -fail-on-partial -log-json -scenario cluster-3x2 \
    >"$WORK/loadgen-cluster.json" 2>"$WORK/loadgen2.err"; then
    cat "$WORK/loadgen-cluster.json" "$WORK/loadgen2.err"
    echo "FAIL: recovered cluster still failing or partial"
    exit 1
fi
grep -o '"ok": [0-9]*' "$WORK/loadgen-cluster.json" | head -1 || true
if [ -n "$ART" ]; then
    cp "$WORK/loadgen-cluster.json" "$ART/cluster-3x2_$(date -u +%Y-%m-%d).json"
    echo "   loadgen report -> $ART/cluster-3x2_$(date -u +%Y-%m-%d).json"
fi

echo "cluster-smoke OK: replica failover clean, dead shard degraded to partial:true [1], restart recovered full merges"
