#!/usr/bin/env bash
# Hot-swap smoke test: publish four registry versions (good, good,
# low-agreement, corrupted), serve the first, and drive sustained
# loadgen traffic while triggering reloads —
#
#   v2        must swap in        (canary passes)        -> HTTP 200
#   v3-bad    must be rejected    (canary agreement low)  -> HTTP 409
#   v4-corrupt must be rejected   (checksum mismatch)     -> HTTP 409
#
# and the loadgen run (-fail-on-error) fails the script if ANY request
# observed a non-200 during the swaps. Exercises: registry publish,
# checksum verification, canary gate, rollback-on-reject, and the
# zero-downtime drain ordering of the Swappable backend.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
SERVE_PID=""
# With SMOKE_ARTIFACTS set, the loadgen JSON report is copied there
# for CI artifact upload; SMOKE_DURATION stretches the run for nightly
# full-length passes.
ART="${SMOKE_ARTIFACTS:-}"
if [ -n "$ART" ]; then
    mkdir -p "$ART"
    ART="$(cd "$ART" && pwd)" # scripts cd around; artifact dir must stay absolute
fi
DUR="${SMOKE_DURATION:-9s}"
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    [ -n "$SERVE_PID" ] && wait "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== building =="
cd "$ROOT"
go build -o "$WORK/enmc-train" ./cmd/enmc-train
go build -o "$WORK/enmc-serve" ./cmd/enmc-serve
go build -o "$WORK/enmc-loadgen" ./cmd/enmc-loadgen

echo "== generating demo model =="
cd "$WORK"
./enmc-train -demo >/dev/null

REG="$WORK/models"
echo "== publishing v1 (serving baseline) and v2 (good upgrade) =="
./enmc-train -classifier demo-cls.bin -features demo-feats.bin \
    -registry "$REG" -version v1 -epochs 2 -k 32 >/dev/null
./enmc-train -classifier demo-cls.bin -features demo-feats.bin \
    -registry "$REG" -version v2 -parent v1 -epochs 3 -k 32 >/dev/null

echo "== publishing v3-bad (k=1 INT2 1-epoch screener: fails canary) =="
./enmc-train -classifier demo-cls.bin -features demo-feats.bin \
    -registry "$REG" -version v3-bad -parent v1 -epochs 1 -k 1 -bits 2 >/dev/null

echo "== publishing v4-corrupt, then corrupting its screener =="
./enmc-train -classifier demo-cls.bin -features demo-feats.bin \
    -registry "$REG" -version v4-corrupt -parent v2 -epochs 2 -k 32 >/dev/null
# Flip bytes in the middle of the published artifact: the manifest
# checksum must now reject it at load time.
dd if=/dev/zero of="$REG/v4-corrupt/screener.bin" bs=1 seek=4096 count=64 conv=notrunc 2>/dev/null

echo "== starting enmc-serve pinned at v1 =="
./enmc-serve -model-root "$REG" -model-version v1 -canary-floor 0.5 \
    -addr 127.0.0.1:0 -port-file "$WORK/port" >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$WORK/port" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { cat "$WORK/serve.log"; echo "FAIL: server died"; exit 1; }
    sleep 0.1
done
PORT="$(cat "$WORK/port")"
BASE="http://127.0.0.1:$PORT"
echo "   serving on $BASE"

reload() { # reload <json-body> -> echoes HTTP status
    curl -s -o "$WORK/reload.json" -w '%{http_code}' \
        -X POST -H 'Content-Type: application/json' -d "$1" "$BASE/v1/model/reload"
}

echo "== driving loadgen while swapping =="
./enmc-loadgen -addr "127.0.0.1:$PORT" -dim 128 -duration "$DUR" -concurrency 4 \
    -fail-on-error -log-json -scenario serve-hotswap >"$WORK/loadgen.json" 2>&1 &
LOADGEN_PID=$!
sleep 2

echo "-- reload to v2 (must succeed)"
code="$(reload '{"version":"v2"}')"
[ "$code" = "200" ] || { cat "$WORK/reload.json"; echo "FAIL: v2 reload got HTTP $code, want 200"; exit 1; }
grep -q '"version":"v2"' "$WORK/reload.json" || { echo "FAIL: v2 reload body: $(cat "$WORK/reload.json")"; exit 1; }
sleep 1

echo "-- reload to v3-bad (must be rejected by canary, 409)"
code="$(reload '{"version":"v3-bad"}')"
[ "$code" = "409" ] || { cat "$WORK/reload.json"; echo "FAIL: v3-bad reload got HTTP $code, want 409"; exit 1; }
grep -q 'canary' "$WORK/reload.json" || { echo "FAIL: v3-bad rejection not a canary error: $(cat "$WORK/reload.json")"; exit 1; }

echo "-- reload to v4-corrupt (must be rejected by checksum, 409)"
code="$(reload '{"version":"v4-corrupt"}')"
[ "$code" = "409" ] || { cat "$WORK/reload.json"; echo "FAIL: v4-corrupt reload got HTTP $code, want 409"; exit 1; }
grep -q 'checksum' "$WORK/reload.json" || { echo "FAIL: v4-corrupt rejection not a checksum error: $(cat "$WORK/reload.json")"; exit 1; }

echo "-- /v1/model must show v2 active with one swap and one canary rejection"
curl -s "$BASE/v1/model" >"$WORK/model.json"
grep -q '"version":"v2"' "$WORK/model.json" || { echo "FAIL: /v1/model: $(cat "$WORK/model.json")"; exit 1; }
grep -q '"swap_total":1' "$WORK/model.json" || { echo "FAIL: swap_total: $(cat "$WORK/model.json")"; exit 1; }
grep -q '"canary_rejected":1' "$WORK/model.json" || { echo "FAIL: canary_rejected: $(cat "$WORK/model.json")"; exit 1; }

echo "== waiting for loadgen (zero non-200s required) =="
if ! wait "$LOADGEN_PID"; then
    cat "$WORK/loadgen.json"
    echo "FAIL: loadgen observed failed requests during the swaps"
    exit 1
fi
grep -o '"ok": [0-9]*' "$WORK/loadgen.json" | head -1 || true
if [ -n "$ART" ]; then
    cp "$WORK/loadgen.json" "$ART/serve-hotswap_$(date -u +%Y-%m-%d).json"
    echo "   loadgen report -> $ART/serve-hotswap_$(date -u +%Y-%m-%d).json"
fi
echo "swap-smoke OK: hot swap under traffic with zero failed requests; bad candidates rejected with rollback"
