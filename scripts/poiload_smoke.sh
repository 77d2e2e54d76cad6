#!/usr/bin/env bash
# Load-smoke the serving stack end to end: build poiserve and poiload, let
# poiload boot and own the server, and drive two short scenarios.
#
#   1. steady: closed-loop crowd; poiload exits non-zero on any lost
#      answer, error-rate breach, or a client/server request-counter
#      mismatch against GET /metrics (poiload owns the sole client, so the
#      counters must agree exactly).
#   2. rolling-restart: mid-run POST /checkpoint + SIGTERM (graceful drain,
#      final checkpoint) + restart with -restore; poiload exits non-zero if
#      a single acknowledged answer was lost or the error rate exceeds 1%.
#   3. steady + background fits: the server runs with -bg-fit so full EM
#      never blocks a request; same zero-lost, error-rate and counter-match
#      assertions as the first leg.
#   4. rolling-restart + background fits: the drain must fold outstanding
#      answers into a final generation before the final checkpoint, so the
#      zero-lost-acked-answers assertion holds with the pipeline enabled.
#   5. drift + elastic re-sharding: halfway through, all traffic shifts
#      onto one quadrant's workers while the elastic sharded server
#      live-migrates its partition; poiload exits non-zero on any lost
#      acked answer or error rate above 1%. (Post-drift throughput is
#      the benchmark's drift-elastic workload, see benchmark/README.md.)
#   6. tracing: four steady runs, tracing off-on-on-off (all with
#      -bg-fit, so synchronous-EM stall noise doesn't swamp the
#      comparison; the mirrored order cancels host capacity drift). The
#      traced runs must come back with server span trees joined to their
#      slowest requests (proving /debug/traces is populated and the ID
#      handshake works end to end), and summed traced throughput must
#      stay within 5% of untraced. The throughput gate needs >= 2 CPUs
#      — on one core the client, server, and trace poll contend for the
#      same cycles and per-run noise swamps the bound.
#
# CI's load-smoke job runs this; it also works locally:
#   scripts/poiload_smoke.sh [port]
set -euo pipefail

PORT="${1:-18091}"
BIN_DIR="$(mktemp -d)"
trap 'rm -rf "$BIN_DIR"' EXIT

go build -o "$BIN_DIR/poiserve" ./cmd/poiserve
go build -o "$BIN_DIR/poiload" ./cmd/poiload

# The world must hold enough (worker, task) pairs that supply does not dry
# up mid-run: 16 workers x 1000 tasks = 16k pairs for a ~6s run.
COMMON=(-serve-bin "$BIN_DIR/poiserve" -addr "127.0.0.1:${PORT}"
        -workers 16 -duration 5s -warmup 1s -think 5ms -world-tasks 1000)

echo "== load-smoke: steady =="
"$BIN_DIR/poiload" "${COMMON[@]}" -scenario steady

echo "== load-smoke: rolling-restart =="
"$BIN_DIR/poiload" "${COMMON[@]}" -scenario rolling-restart -max-error-rate 0.01

echo "== load-smoke: steady + background fits =="
"$BIN_DIR/poiload" "${COMMON[@]}" -scenario steady -bg-fit 250ms -bg-min-answers 64

echo "== load-smoke: rolling-restart + background fits =="
"$BIN_DIR/poiload" "${COMMON[@]}" -scenario rolling-restart -max-error-rate 0.01 \
        -bg-fit 250ms -bg-min-answers 64

echo "== load-smoke: drift + elastic re-sharding =="
"$BIN_DIR/poiload" "${COMMON[@]}" -scenario drift -max-error-rate 0.01 \
        -engine sharded -shards 2 -bg-fit 250ms -bg-min-answers 64 \
        -elastic -elastic-check 300ms

echo "== load-smoke: tracing overhead + /debug/traces join =="
# Four steady runs in off-on-on-off order: the hosts this runs on drift in
# capacity run over run, so a single off/on pair mostly measures which run
# went second. Mirroring the order puts tracing-on and tracing-off in the
# second slot once each, cancelling linear drift out of the summed ratio.
# Both modes use background fits: without them, synchronous full-EM stalls
# land differently each run and that noise alone (±6% and worse on small
# hosts) dwarfs the ~0.2% tracing effect the gate is after. See
# PERFORMANCE.md §Observability.
rps() { sed -n 's/.*"throughput_rps": \([0-9.]*\).*/\1/p' | head -1; }
TRACED_COMMON=("${COMMON[@]}" -scenario steady -bg-fit 250ms -bg-min-answers 64)
OFF1="$("$BIN_DIR/poiload" "${TRACED_COMMON[@]}" -json | rps)"
ON_JSON="$("$BIN_DIR/poiload" "${TRACED_COMMON[@]}" -trace -json)"
ON1="$(echo "$ON_JSON" | rps)"
ON2="$("$BIN_DIR/poiload" "${TRACED_COMMON[@]}" -trace -json | rps)"
OFF2="$("$BIN_DIR/poiload" "${TRACED_COMMON[@]}" -json | rps)"
echo "$ON_JSON" | grep -q '"slow_traces"' \
        || { echo "traced run joined no traces — /debug/traces empty?"; exit 1; }
echo "$ON_JSON" | grep -q '"spans"' \
        || { echo "traced run has no server-side span trees in its join"; exit 1; }
# The wall-clock comparison only runs where the host can support it: with a
# single CPU the client, server,
# and trace poll all time-slice one core and per-run noise (±8%) swamps
# the 5% bound, so the join assertions above are the whole check there.
NCPU="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
if [ "$NCPU" -lt 2 ]; then
        echo "single-CPU host: tracing join checked, overhead gate skipped"
else
        awk -v on1="$ON1" -v on2="$ON2" -v off1="$OFF1" -v off2="$OFF2" 'BEGIN {
                ratio = (on1 + on2) / (off1 + off2)
                printf "tracing-on %.0f+%.0f req/s vs tracing-off %.0f+%.0f req/s (%+.1f%%)\n", \
                        on1, on2, off1, off2, 100 * (ratio - 1)
                exit (ratio < 0.95) ? 1 : 0
        }' || { echo "tracing overhead exceeds 5%"; exit 1; }
fi

echo "LOAD SMOKE OK"
