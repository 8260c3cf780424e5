#!/bin/sh
# Differential scenario harness (docs/SCENARIOS.md): render a seeded
# federation scenario with sit_scenario, then replay its op schedule
# through every execution leg the stack offers and require the
# transcripts to be byte-identical:
#
#   1. offline in-process execution  (the reference)
#   2. a real daemon over the wire
#   3. a daemon stopped at the checkpoint phase and a fresh daemon
#      resumed from its journal (prefix + suffix = uninterrupted run)
#
# sit_scenario itself exits non-zero when the scenario's integration
# misses a ground-truth same-concept pair, so every seed also asserts
# full truth recovery.  Run via `make scenario-test` (part of
# `make check`); the seed matrix is pinned there.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
SERVE="$ROOT/_build/default/bin/sit_serve.exe"
SCN="$ROOT/_build/default/bin/sit_scenario.exe"
WORK="${TMPDIR:-/tmp}/sit_scenario_test_$$"

[ -x "$SERVE" ] || { echo "scenario-test: build first (dune build)"; exit 1; }
[ -x "$SCN" ] || { echo "scenario-test: build first (dune build)"; exit 1; }

mkdir -p "$WORK"
PID=""
cleanup() {
  [ -z "$PID" ] || kill "$PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "scenario-test: $*"; exit 1; }

# start_daemon JOURNAL_DIR SOCKET — serve the current scenario
start_daemon() {
  "$SERVE" "$OUT/schemas.ecr" -s "$OUT/session.sit" \
    --data "$OUT/instances.ecd" --journal "$1" --listen "unix:$2" \
    >>"$WORK/daemon.log" 2>&1 &
  PID=$!
  i=0
  while [ ! -S "$2" ]; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { cat "$WORK/daemon.log"; fail "daemon did not come up"; }
    sleep 0.1
  done
}

stop_daemon() {
  kill "$PID" 2>/dev/null || true
  wait "$PID" 2>/dev/null || true
  PID=""
}

# run_seed SEED SCHEMAS STORM EVOLVE ROUNDS
run_seed() {
  SEED=$1
  OUT="$WORK/s$SEED"
  "$SCN" --seed "$SEED" --schemas "$2" --storm "$3" --evolve "$4" \
    --rounds "$5" --out "$OUT" \
    || fail "seed $SEED: generation or ground-truth recovery failed"

  SCHED="$OUT/schedule.txt"
  CK=$(awk '/^!phase/ { if ($NF == "checkpoint") print n; n++ }' "$SCHED")
  NPH=$(grep -c '^!phase' "$SCHED")
  [ -n "$CK" ] || fail "seed $SEED: schedule has no checkpoint phase"

  # leg 1: offline — the reference transcript
  "$SERVE" "$OUT/schemas.ecr" -s "$OUT/session.sit" \
    --data "$OUT/instances.ecd" --listen 127.0.0.1:0 \
    --schedule "$SCHED" --transcript "$OUT/ref.txt" \
    || fail "seed $SEED: offline leg failed"

  # leg 2: a fresh daemon over the wire
  SOCK="$WORK/s$SEED.served.sock"
  start_daemon "$WORK/j$SEED.served" "$SOCK"
  "$SERVE" --drive "unix:$SOCK" --conns 4 \
    --schedule "$SCHED" --transcript "$OUT/served.txt" \
    || fail "seed $SEED: served leg failed"
  stop_daemon
  cmp -s "$OUT/ref.txt" "$OUT/served.txt" \
    || fail "seed $SEED: served leg diverged from the reference"

  # leg 3: stop at the checkpoint phase, resume from the journal
  SOCK="$WORK/s$SEED.resume.sock"
  JDIR="$WORK/j$SEED.resume"
  start_daemon "$JDIR" "$SOCK"
  "$SERVE" --drive "unix:$SOCK" --conns 4 \
    --schedule "$SCHED" --phases "0:$CK" --transcript "$OUT/prefix.txt" \
    || fail "seed $SEED: resume prefix leg failed"
  stop_daemon
  start_daemon "$JDIR" "$SOCK"
  "$SERVE" --drive "unix:$SOCK" --conns 4 \
    --schedule "$SCHED" --phases "$CK:$NPH" --transcript "$OUT/suffix.txt" \
    || fail "seed $SEED: resume suffix leg failed"
  stop_daemon
  cat "$OUT/prefix.txt" "$OUT/suffix.txt" >"$OUT/resumed.txt"
  cmp -s "$OUT/ref.txt" "$OUT/resumed.txt" \
    || fail "seed $SEED: resumed leg diverged from the uninterrupted run"

  echo "scenario-test: seed $SEED ok ($(grep -c '^{' "$OUT/ref.txt") responses, checkpoint phase $CK of $NPH)"
}

# The pinned matrix (budget documented in the Makefile): one
# federation-scale scenario (8 schemas, 241 ops) plus two smaller
# shapes covering a narrow federation and a single-round schedule.
run_seed 11 8 36 9 2
run_seed 23 5 24 6 2
run_seed 42 6 30 8 1

echo "scenario-test: ok"
