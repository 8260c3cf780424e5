#!/bin/sh
# Chaos harness for the replication tier (docs/ROBUSTNESS.md): render a
# pinned-seed scenario, then drive it through a leader + 2-follower
# cluster while the harness injects the faults the tier claims to
# tolerate, asserting byte-identity against a single-node reference at
# every step:
#
#   leg 1 (reference): one node replays the full schedule; its
#         transcript, and a read-only deck replayed after it, are the
#         oracle every other leg is compared against
#   leg 2 (replicated): the same schedule against a leader with
#         --ack-replicas 2 and two live followers — the transcript must
#         be byte-identical (replication must not change one answer)
#   leg 3 (catch-up): each follower must converge to answering the
#         read deck byte-identically to the reference
#   leg 4 (kill -9 the leader mid-load): the read deck replayed through
#         the failover client (--endpoints dead-leader,f1,f2) while the
#         leader is SIGKILLed — every acknowledged write must still be
#         visible, every answer byte-identical to the reference
#   leg 5 (late follower): a follower started after all mutations
#         finished must catch up from seq 1 and converge the same way
#   leg 6 (compaction): a journalled leader with --compact-every runs a
#         write storm past the compaction window (base_seq > 0), is
#         SIGKILLed and restarted — recovery is snapshot + suffix — and
#         a fresh follower whose start point is below the truncated
#         base must catch up through a snapshot transfer
#         (snapshot_installs >= 1), byte-identical to the reference
#
# Seeds are pinned so the fault schedule is reproducible.  Run via
# `make chaos-test` (part of `make check`).
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
SERVE="$ROOT/_build/default/bin/sit_serve.exe"
SCN="$ROOT/_build/default/bin/sit_scenario.exe"
WORK="${TMPDIR:-/tmp}/sit_chaos_test_$$"

# the pinned scenario: seed/schemas/storm/evolve/rounds
SEED=23
SHAPE="5 24 6 2"

[ -x "$SERVE" ] || { echo "chaos-test: build first (dune build)"; exit 1; }
[ -x "$SCN" ] || { echo "chaos-test: build first (dune build)"; exit 1; }

mkdir -p "$WORK"
PIDS=""
cleanup() {
  for P in $PIDS; do kill -9 "$P" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "chaos-test: $*"; exit 1; }

# start_node LOG ARGS... — start a daemon on an ephemeral TCP port;
# sets $PORT to the port it advertises (the kernel picks it, so
# parallel runs never collide) and $LAST_PID to its pid
start_node() {
  LOGF=$1; shift
  # the log exists before the daemon starts, so the first poll cannot
  # race its creation
  : >"$LOGF"
  "$SERVE" "$OUT/schemas.ecr" -s "$OUT/session.sit" \
    --data "$OUT/instances.ecd" --listen 127.0.0.1:0 \
    "$@" >"$LOGF" 2>&1 &
  LAST_PID=$!
  PIDS="$PIDS $LAST_PID"
  i=0
  PORT=""
  while [ -z "$PORT" ]; do
    i=$((i + 1))
    [ "$i" -le 150 ] || { cat "$LOGF" >&2; fail "daemon did not advertise a port"; }
    PORT=$(sed -n 's/^sit_serve: listening on port \([0-9][0-9]*\)$/\1/p' "$LOGF")
    [ -n "$PORT" ] || sleep 0.1
  done
}

# converge ADDR OUT_FILE — replay the read deck against ADDR until its
# transcript is byte-identical to the reference (catch-up window), or
# fail after the retry budget
converge() {
  i=0
  while :; do
    i=$((i + 1))
    if "$SERVE" --drive "$1" --conns 1 \
         --schedule "$READS_SCHED" --transcript "$2" >/dev/null 2>&1 \
       && cmp -s "$OUT/ref_reads.txt" "$2"; then
      return 0
    fi
    [ "$i" -le 100 ] || return 1
    sleep 0.1
  done
}

# ---- scenario ------------------------------------------------------

OUT="$WORK/scenario"
# shellcheck disable=SC2086
"$SCN" --seed "$SEED" $(printf -- '--schemas %s --storm %s --evolve %s --rounds %s' $SHAPE) \
  --out "$OUT" >/dev/null \
  || fail "seed $SEED: generation or ground-truth recovery failed"
SCHED="$OUT/schedule.txt"
[ -s "$OUT/reads.txt" ] || fail "scenario rendered no read deck"

# the read-only deck as a one-phase storm schedule, so the drive client
# can replay it and emit a comparable transcript
READS_SCHED="$OUT/reads_sched.txt"
{ echo "!phase reads storm"; cat "$OUT/reads.txt"; } >"$READS_SCHED"

# ---- leg 1: single-node reference ----------------------------------

start_node "$WORK/ref.log"
REF_PID=$LAST_PID
"$SERVE" --drive "127.0.0.1:$PORT" --conns 4 \
  --schedule "$SCHED" --transcript "$OUT/ref.txt" \
  || fail "reference schedule leg failed"
"$SERVE" --drive "127.0.0.1:$PORT" --conns 1 \
  --schedule "$READS_SCHED" --transcript "$OUT/ref_reads.txt" \
  || fail "reference read-deck leg failed"
kill -TERM "$REF_PID" && wait "$REF_PID" || fail "reference daemon exited non-zero"

# ---- leg 2: replicated run, semi-sync ------------------------------

start_node "$WORK/leader.log" --ack-replicas 2
LPORT=$PORT
LEADER_PID=$LAST_PID
start_node "$WORK/f1.log" --follow "127.0.0.1:$LPORT"
F1PORT=$PORT
start_node "$WORK/f2.log" --follow "127.0.0.1:$LPORT"
F2PORT=$PORT

"$SERVE" --drive "127.0.0.1:$LPORT" --conns 4 \
  --schedule "$SCHED" --transcript "$OUT/repl.txt" \
  || fail "replicated schedule leg failed"
cmp -s "$OUT/ref.txt" "$OUT/repl.txt" \
  || fail "replicated leg diverged from the single-node reference"

# ---- leg 3: both followers converge --------------------------------

converge "127.0.0.1:$F1PORT" "$OUT/f1_reads.txt" \
  || fail "follower 1 never converged on the reference answers"
converge "127.0.0.1:$F2PORT" "$OUT/f2_reads.txt" \
  || fail "follower 2 never converged on the reference answers"

# follower health must expose replication state (staleness_seq)
if command -v python3 >/dev/null 2>&1; then
  python3 - "$F1PORT" <<'EOF'
import json, socket, sys
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
f = s.makefile("rw")
f.write('{"op":"health"}\n'); f.flush()
h = json.loads(f.readline())
assert h["ok"], h
assert h["role"] == "follower", h
assert h["staleness_seq"] == 0, h
assert "applied_seq" in h, h
s.close()
EOF
else
  echo "chaos-test: python3 not found, skipping follower health check"
fi

# ---- leg 4: SIGKILL the leader; reads fail over --------------------

kill -9 "$LEADER_PID" 2>/dev/null || true
wait "$LEADER_PID" 2>/dev/null || true

# the dead leader stays first in the endpoint list: every worker must
# walk past it (connection refused) and still answer every frame with
# the reference bytes — no acknowledged write may be missing
"$SERVE" --drive "127.0.0.1:$LPORT" \
  --endpoints "127.0.0.1:$LPORT,127.0.0.1:$F1PORT,127.0.0.1:$F2PORT" \
  --conns 4 --timeout-ms 2000 \
  --schedule "$READS_SCHED" --transcript "$OUT/failover_reads.txt" \
  || fail "post-kill failover leg failed"
cmp -s "$OUT/ref_reads.txt" "$OUT/failover_reads.txt" \
  || fail "post-failover answers diverged: an acknowledged write was lost"

# a follower of a dead leader must degrade gracefully: come up, serve
# reads of its own (setup) state, keep retrying the tail under backoff
start_node "$WORK/f3.log" --follow "127.0.0.1:$LPORT"
F3PORT=$PORT
F3_PID=$LAST_PID
"$SERVE" --drive "127.0.0.1:$F3PORT" --conns 1 --requests 4 \
  --global "select * from G_Root" >/dev/null 2>&1 \
  || true # the query itself may be a typed error; the daemon answering is the point
if command -v python3 >/dev/null 2>&1; then
  python3 - "$F3PORT" <<'EOF'
import json, socket, sys
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
f = s.makefile("rw")
f.write('{"op":"health"}\n'); f.flush()
h = json.loads(f.readline())
assert h["ok"] and h["role"] == "follower", h
assert h["repl_connected"] is False, h
s.close()
EOF
fi
kill -9 "$F3_PID" 2>/dev/null || true
wait "$F3_PID" 2>/dev/null || true

# ---- leg 5: a follower started after the fact catches up -----------

start_node "$WORK/leader2.log"
LPORT2=$PORT
LEADER2_PID=$LAST_PID
"$SERVE" --drive "127.0.0.1:$LPORT2" --conns 4 \
  --schedule "$SCHED" --transcript "$OUT/l2.txt" \
  || fail "second leader schedule leg failed"
cmp -s "$OUT/ref.txt" "$OUT/l2.txt" || fail "second leader diverged"
start_node "$WORK/f4.log" --follow "127.0.0.1:$LPORT2"
F4PORT=$PORT
converge "127.0.0.1:$F4PORT" "$OUT/f4_reads.txt" \
  || fail "late-started follower never converged"
kill -TERM "$LEADER2_PID" 2>/dev/null || true

# ---- leg 6: compaction, kill -9, snapshot-transfer catch-up ---------

JDIR="$WORK/leader3_journal"
mkdir -p "$JDIR"
start_node "$WORK/leader3.log" --journal "$JDIR" --compact-every 4
LPORT3=$PORT
LEADER3_PID=$LAST_PID
"$SERVE" --drive "127.0.0.1:$LPORT3" --conns 4 \
  --schedule "$SCHED" --transcript "$OUT/l3.txt" \
  || fail "compacting leader schedule leg failed"
cmp -s "$OUT/ref.txt" "$OUT/l3.txt" \
  || fail "compaction changed an answer: leg 6 diverged from the reference"

# the storm must have driven the log past the compaction window
if command -v python3 >/dev/null 2>&1; then
  python3 - "$LPORT3" <<'EOF'
import json, socket, sys
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
f = s.makefile("rw")
f.write('{"op":"repl_status"}\n'); f.flush()
st = json.loads(f.readline())
assert st["ok"] and st["role"] == "leader", st
assert st["base_seq"] > 0, ("log was never truncated", st)
assert st["snapshot_seq"] >= st["base_seq"], st
s.close()
EOF
fi

kill -9 "$LEADER3_PID" 2>/dev/null || true
wait "$LEADER3_PID" 2>/dev/null || true

# restart from the same journal: recovery must be snapshot + suffix,
# and the recovered state must answer the read deck byte-identically
start_node "$WORK/leader3b.log" --journal "$JDIR" --compact-every 4
LPORT3B=$PORT
converge "127.0.0.1:$LPORT3B" "$OUT/l3b_reads.txt" \
  || fail "leader restarted from snapshot + suffix diverged"

# a fresh follower starts below the truncated base: it must take the
# snapshot-transfer leg and still converge on the reference bytes
start_node "$WORK/f5.log" --follow "127.0.0.1:$LPORT3B"
F5PORT=$PORT
converge "127.0.0.1:$F5PORT" "$OUT/f5_reads.txt" \
  || fail "follower behind the truncation never converged"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$F5PORT" <<'EOF'
import json, socket, sys
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
f = s.makefile("rw")
f.write('{"op":"health"}\n'); f.flush()
h = json.loads(f.readline())
assert h["ok"] and h["role"] == "follower", h
assert h["staleness_seq"] == 0, h
assert h["snapshot_installs"] >= 1, ("catch-up did not go through a snapshot", h)
s.close()
EOF
fi

echo "chaos-test: ok (seed $SEED; $(grep -c '^{' "$OUT/ref_reads.txt") read frames held byte-identical through failover and compaction)"
