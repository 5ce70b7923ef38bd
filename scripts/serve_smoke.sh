#!/usr/bin/env bash
# Binary-level smoke test for dft-serve: start the server, drive it with
# dft-client, SIGTERM it mid-batch and assert the drain answered the
# in-flight request before exit. CI runs this after `cargo build
# --release`; locally: ./scripts/serve_smoke.sh [target/release]
set -euo pipefail

bin="${1:-target/release}"
out="$(mktemp -d)"
trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$out"' EXIT

DFT_SERVE_ADDR=127.0.0.1:0 "$bin/dft-serve" >"$out/serve.out" 2>"$out/serve.err" &
server_pid=$!

addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's/^dft-serve listening on //p' "$out/serve.out")"
  [ -n "$addr" ] && break
  sleep 0.1
done
[ -n "$addr" ] || { echo "server never reported its address"; cat "$out/serve.err"; exit 1; }
echo "serving on $addr"

# One request via the client; tolerates its non-zero "response was not
# ok" exit status (we assert on the response body instead).
req() { "$bin/dft-client" "$addr" "$1" || true; }

# Liveness + malformed input survives.
req '{"op":"ping"}' | grep -q '"status":"ok"'
req 'not json at all' | grep -q '"status":"error"'
req '{"op":"ping"}' | grep -q '"status":"ok"'

# Cold then warm analysis of the sensor case study.
req '{"op":"analyse","id":"cold","design":"sensor"}' >"$out/cold.json"
grep -q '"cache":"cold"' "$out/cold.json"
grep -q '"status":"ok"' "$out/cold.json"
req '{"op":"analyse","id":"warm","design":"sensor"}' >"$out/warm.json"
grep -q '"cache":"warm"' "$out/warm.json"

# SIGTERM mid-batch: a deliberately slow request is in flight when the
# signal lands; the drain must answer it before the process exits.
"$bin/dft-client" "$addr" \
  '{"op":"analyse","id":"slow","design":"probe","deadline_ms":3000,"retries":0,"testcases":[{"name":"RUNAWAY","duration_us":3000000000,"channels":{"level":{"kind":"constant","level":1}}}]}' \
  >"$out/slow.json" &
client_pid=$!
sleep 0.5
kill -TERM "$server_pid"
wait "$client_pid" || true # exit 2: the response is (correctly) degraded
grep -q '"id":"slow"' "$out/slow.json"
grep -q '"outcome":"timed-out"' "$out/slow.json"

wait "$server_pid"
grep -q 'drained, bye' "$out/serve.err"
echo "serve smoke OK"
