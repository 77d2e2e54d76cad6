#!/usr/bin/env bash
# Smoke-test the poiserve HTTP gateway: build it, start it on a demo world,
# drive the core endpoints (answers, assignments, results, worker
# introspection), checkpoint it, kill it, restart it with -restore, and
# assert the restarted server reports identical results and budget. CI runs
# this once per engine shape; it also works locally:
#   [POISERVE_SMOKE_ENGINE="-engine federated -cities 2 -shards 2"] scripts/poiserve_smoke.sh [port]
set -euo pipefail

PORT="${1:-18080}"
# The engine flags both server starts share (word-split on purpose).
ENGINE_FLAGS="${POISERVE_SMOKE_ENGINE:--engine sharded -shards 4}"
ENGINE_NAME="$(echo "$ENGINE_FLAGS" | sed -n 's/.*-engine \([a-z]*\).*/\1/p')"
BASE="http://127.0.0.1:${PORT}"
BIN="$(mktemp -d)/poiserve"
LOG="$(mktemp)"
SNAP="$(mktemp -d)/poiserve.snap"

go build -o "$BIN" ./cmd/poiserve

"$BIN" -addr "127.0.0.1:${PORT}" -demo 12 $ENGINE_FLAGS -budget 200 \
  -checkpoint "$SNAP" >"$LOG" 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; cat "$LOG"' EXIT

# Wait for the server to come up.
for _ in $(seq 1 50); do
  if curl -sf "$BASE/healthz" >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done

fail() { echo "SMOKE FAIL: $1" >&2; exit 1; }

health=$(curl -sf "$BASE/healthz")
echo "healthz: $health"
echo "$health" | grep -q '"ok":true' || fail "healthz not ok"
echo "$health" | grep -q "\"engine\":\"$ENGINE_NAME\"" || fail "wrong engine"
echo "$health" | grep -q '"tasks":200' || fail "demo tasks missing"

# Register one extra task and worker over HTTP (dynamic registration).
curl -sf -X POST "$BASE/tasks" -d '{"id":"smoke-task","task":{"location":{"x":5,"y":5},"labels":["a","b"]}}' >/dev/null || fail "POST /tasks"
curl -sf -X POST "$BASE/workers" -d '{"id":"smoke-worker","worker":{"locations":[{"x":5,"y":5}]}}' >/dev/null || fail "POST /workers"

# An assignment round for three workers.
assign=$(curl -sf -X POST "$BASE/assignments" -d '{"workers":["w0","w1","smoke-worker"]}')
echo "assignments: $assign"
echo "$assign" | grep -q '"assignments"' || fail "no assignments object"
echo "$assign" | grep -vq '"assignments":{}' || fail "empty assignment round"

# A few answers, one of them unsolicited.
curl -sf -X POST "$BASE/answers" -d '{"worker":"smoke-worker","task":"smoke-task","selected":[true,false]}' >/dev/null || fail "POST /answers"
curl -sf -X POST "$BASE/answers" \
  -d '{"worker":"w0","task":"t0","selected":[true,true,false,true,false,true,false,true,false,true]}' >/dev/null || fail "POST /answers t0"

# Results cover the registered world (200 demo tasks + 1 smoke task).
results=$(curl -sf "$BASE/results")
count=$(echo "$results" | grep -o '"task":' | wc -l)
echo "results cover $count tasks"
[ "$count" -eq 201 ] || fail "results cover $count tasks, want 201"

# Worker introspection returns a quality in (0, 1).
worker=$(curl -sf "$BASE/workers/smoke-worker")
echo "worker: $worker"
echo "$worker" | grep -q '"quality":0\.' || fail "no quality estimate"

# Typed error mapping: unknown worker is 404, exhausted budget would be 402.
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/workers/ghost")
[ "$code" -eq 404 ] || fail "unknown worker returned $code, want 404"

# --- Durability: checkpoint, kill, restart with -restore, compare state. ---
pre_results=$(curl -sf "$BASE/results")
pre_health=$(curl -sf "$BASE/healthz")

ckpt=$(curl -sf -X POST "$BASE/checkpoint")
echo "checkpoint: $ckpt"
echo "$ckpt" | grep -q '"bytes":' || fail "checkpoint returned no byte count"
[ -s "$SNAP" ] || fail "snapshot file missing or empty"

kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true

# Restart from the snapshot: same engine flags, no -demo seeding.
"$BIN" -addr "127.0.0.1:${PORT}" $ENGINE_FLAGS -restore "$SNAP" >>"$LOG" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 50); do
  if curl -sf "$BASE/healthz" >/dev/null 2>&1; then
    break
  fi
  sleep 0.1
done

post_results=$(curl -sf "$BASE/results")
post_health=$(curl -sf "$BASE/healthz")
[ "$pre_results" = "$post_results" ] || fail "results changed across restart"
[ "$pre_health" = "$post_health" ] || fail "health accounting (budget/pending) changed across restart"
echo "restart: results and budget identical after -restore"

# The restored server keeps serving: one more assignment round succeeds.
assign2=$(curl -sf -X POST "$BASE/assignments" -d '{"workers":["w2","w3"]}')
echo "$assign2" | grep -q '"assignments"' || fail "no assignments after restore"

trap - EXIT
kill "$SERVER_PID" 2>/dev/null || true
echo "SMOKE OK"
