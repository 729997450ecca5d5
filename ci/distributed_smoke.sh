#!/usr/bin/env bash
# Distributed smoke test: a coordinator plus two worker daemons on localhost
# (all race-instrumented) must produce the same report as a serial run of
# the same workload. One worker is pinned to the workload, the other joins
# without -workload and builds the program from the announced job. Exercises
# the full wire path — handshake, job announcement, task leasing,
# heartbeats, result merging, done broadcast — end to end. A pinned worker
# built with other -iters must be refused at hello and exit non-zero with
# the reason.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
cleanup() {
  local pids
  pids=$(jobs -p)
  [ -n "$pids" ] && kill $pids 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

FLAGS="-workload matmul -procs 6 -k 1"
ADDR=127.0.0.1:19477

go build -race -o "$workdir/dampi" ./cmd/dampi
go build -race -o "$workdir/dampid" ./cmd/dampid

# Keep only the order-independent report body: the summary line plus the
# error/reproducer lines with completion-order indexes stripped.
normalize() {
  grep -E '^DAMPI:|error in interleaving|reproducer' "$1" \
    | sed 's/#[0-9]*//' | sort
}

echo "== serial baseline =="
timeout -k 10 240 "$workdir/dampi" $FLAGS -leaks=false | tee "$workdir/serial.out"

echo "== distributed run (coordinator + pinned worker + any-workload worker) =="
timeout -k 10 240 "$workdir/dampi" -serve "$ADDR" $FLAGS -v > "$workdir/cluster.out" &
coord=$!

# The job cannot finish before a worker joins, so this worker meets the
# running job: it must be rejected, naming the mismatched parameter.
if timeout -k 10 60 "$workdir/dampid" -join "$ADDR" $FLAGS -iters 7 -name bad \
    > "$workdir/bad.out" 2>&1; then
  cat "$workdir/bad.out"
  echo "FAIL: worker built with other -iters was accepted" >&2
  exit 1
fi
cat "$workdir/bad.out"
if ! grep -q 'iters mismatch' "$workdir/bad.out"; then
  echo "FAIL: rejection of the -iters mismatch does not name the field" >&2
  exit 1
fi

timeout -k 10 240 "$workdir/dampid" -join "$ADDR" $FLAGS -slots 2 -name w1 &
w1=$!
timeout -k 10 240 "$workdir/dampid" -join "$ADDR" -slots 2 -name w2 &
w2=$!
wait "$coord"
cat "$workdir/cluster.out"
wait "$w1"
wait "$w2"

if ! grep -q 'started: matmul procs=6' "$workdir/cluster.out"; then
  echo "FAIL: dampi -serve -v did not log the job start" >&2
  exit 1
fi

normalize "$workdir/serial.out" > "$workdir/serial.norm"
normalize "$workdir/cluster.out" > "$workdir/cluster.norm"

if ! diff -u "$workdir/serial.norm" "$workdir/cluster.norm"; then
  echo "FAIL: distributed report differs from serial" >&2
  exit 1
fi
echo "OK: distributed report matches serial"
