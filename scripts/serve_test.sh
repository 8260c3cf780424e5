#!/bin/sh
# End-to-end check of the serving daemon (docs/SERVING.md): start
# sit_serve on the paper's worked example, load it with the drive
# client (4 connections, 1000 requests, byte-identity checked), verify
# the health op and error-path resilience, confirm SIGTERM drains and
# exits cleanly, check that inputs it cannot load stop it at start-up
# with a message and stop sit_batch (and sit, for DDL) with the same
# one, then restart a --journal daemon with a startup --view
# twice and require the view to answer byte-identically across each
# restart, and last send SIGTERM to a --journal daemon in the middle of
# a stream of writes.  Run via `make serve-test` (part of `make check`).
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
SERVE="$ROOT/_build/default/bin/sit_serve.exe"
BATCH="$ROOT/_build/default/bin/sit_batch.exe"
SIT="$ROOT/_build/default/bin/sit.exe"
DATA="$ROOT/examples/data"
SOCK="${TMPDIR:-/tmp}/sit_serve_test_$$.sock"
LOG="${TMPDIR:-/tmp}/sit_serve_test_$$.log"
TCPLOG="${TMPDIR:-/tmp}/sit_serve_test_tcp_$$.log"
JWORK="${TMPDIR:-/tmp}/sit_serve_test_journal_$$"

[ -x "$SERVE" ] || { echo "serve-test: build first (dune build)"; exit 1; }

"$SERVE" "$DATA/sc1.ecr" "$DATA/sc2.ecr" \
  --script "$DATA/paper_session.sit" --data "$DATA/paper_instances.ecd" \
  --view "honors@eager:sc1=select Name from Student where GPA >= 3.0" \
  --listen "unix:$SOCK" >"$LOG" 2>&1 &
PID=$!
TCPPID=""
JPID=""
WPID=""
cleanup() {
  kill "$PID" 2>/dev/null || true
  [ -n "$TCPPID" ] && kill "$TCPPID" 2>/dev/null || true
  [ -n "$JPID" ] && kill "$JPID" 2>/dev/null || true
  [ -n "$WPID" ] && kill -KILL "$WPID" 2>/dev/null || true
  rm -f "$SOCK" "$LOG" "$TCPLOG"
  rm -rf "$JWORK"
}
trap cleanup EXIT

i=0
while [ ! -S "$SOCK" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "serve-test: daemon did not come up"; cat "$LOG"; exit 1; }
  sleep 0.1
done

# the load client exits non-zero on byte mismatches or all-error runs
"$SERVE" --drive "unix:$SOCK" --conns 4 --requests 1000 \
  --query "sc1: select Name, GPA from Student where GPA > 3.0" \
  --query "sc1: select Name from Department" \
  --query "sc2: select Name from Faculty" \
  --global "select D_Name from Student" \
  --mat honors \
  || { RC=$?; echo "serve-test: unix-socket leg failed (exit $RC)"; cat "$LOG"; exit "$RC"; }

# TCP leg on an ephemeral port: the daemon asks the kernel for a free
# port (:0) and advertises it on stderr; we parse that line and point
# the drive client at it — no fixed port, so parallel runs of this
# script (or anything else on the host) can never collide.  The log
# exists before the daemon starts, so the first poll cannot race it.
: >"$TCPLOG"
"$SERVE" "$DATA/sc1.ecr" "$DATA/sc2.ecr" \
  --script "$DATA/paper_session.sit" --data "$DATA/paper_instances.ecd" \
  --listen ":0" >"$TCPLOG" 2>&1 &
TCPPID=$!
PORT=""
i=0
while [ -z "$PORT" ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || { echo "serve-test: TCP daemon did not advertise a port"; cat "$TCPLOG"; exit 1; }
  PORT=$(sed -n 's/^sit_serve: listening on port \([0-9][0-9]*\)$/\1/p' "$TCPLOG")
  [ -n "$PORT" ] || sleep 0.1
done
"$SERVE" --drive "127.0.0.1:$PORT" --conns 4 --requests 200 \
  --query "sc1: select Name, GPA from Student where GPA > 3.0" \
  --global "select D_Name from Student" \
  || { RC=$?; echo "serve-test: TCP ephemeral-port leg failed (exit $RC)"; cat "$TCPLOG"; exit "$RC"; }
kill -TERM "$TCPPID"
wait "$TCPPID" || { echo "serve-test: TCP daemon exited non-zero"; cat "$TCPLOG"; exit 1; }
TCPPID=""

# deliberate failure: an all-error workload must exit non-zero — this
# smoke-checks that the exit-status propagation above can actually fire
if "$SERVE" --drive "unix:$SOCK" --conns 2 --requests 20 \
     --query "sc9: select Name from Nowhere" >/dev/null 2>&1; then
  echo "serve-test: deliberate-failure check did not fail"; exit 1
fi

# malformed frames and failing queries must be answered, not fatal
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SOCK" <<'EOF'
import json, socket, sys
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
f = s.makefile("rw")
def rt(line):
    f.write(line + "\n"); f.flush(); return f.readline().strip()
assert json.loads(rt("not json at all"))["error"]["code"] == "bad_frame"
assert json.loads(rt('{"op":"zap"}'))["error"]["code"] == "unknown_op"
assert json.loads(rt('{"op":"query","view":"sc9","q":"select * from X"}'))["error"]["code"] == "unknown_view"
h = json.loads(rt('{"op":"health"}'))
assert h["ok"] and h["status"] == "ok", h
assert h["cache"]["hits"] > 0, "no cache hits on a repeated workload"
assert h["views"]["count"] == 1, "startup --view not in the catalog"
# materialized-view lifecycle over the wire (docs/VIEWS.md)
vs = json.loads(rt('{"op":"view_stats"}'))
assert [v["name"] for v in vs["views"]] == ["honors"], vs
assert vs["views"][0]["policy"] == "eager", vs
mat = json.loads(rt('{"op":"query","view":"honors"}'))
assert mat["ok"] and mat["fresh"] and mat["count"] >= 1, mat
d = json.loads(rt('{"op":"define_view","view":"depts","base":"sc1","policy":"manual","q":"select Name from Department"}'))
assert d["ok"] and d["defined"] == "depts", d
r = json.loads(rt('{"op":"refresh_view","view":"depts"}'))
assert r["ok"] and r["refreshed"] == "depts", r
assert json.loads(rt('{"op":"drop_view","view":"depts"}'))["ok"]
assert json.loads(rt('{"op":"query","view":"depts"}'))["error"]["code"] == "unknown_view"
s.close()
EOF
else
  echo "serve-test: python3 not found, skipping raw-frame checks"
fi

kill -TERM "$PID"
wait "$PID" || { echo "serve-test: daemon exited non-zero"; cat "$LOG"; exit 1; }
grep -q "drained" "$LOG" || { echo "serve-test: no drain line in log"; cat "$LOG"; exit 1; }
[ ! -S "$SOCK" ] || { echo "serve-test: socket not removed on shutdown"; exit 1; }

mkdir -p "$JWORK"

# Start-up refusals: a DDL, script or data file the daemon cannot load
# must stop it within a second with exit 2 and its message on stderr,
# never with an uncaught exception.  sit_batch, and sit for DDL, read
# their inputs through the same module and must refuse them alike.
# refused NAME RC MESSAGE — check a run's exit status and $JWORK/NAME.err
refused() {
  [ "$2" -eq 2 ] || { echo "serve-test: $1: exit $2, expected 2 (137: still running after 1 s)"; cat "$JWORK/$1.err"; exit 1; }
  grep -qF "$3" "$JWORK/$1.err" || { echo "serve-test: $1: no \"$3\" on stderr"; cat "$JWORK/$1.err"; exit 1; }
  ! grep -q "internal error" "$JWORK/$1.err" || { echo "serve-test: $1: internal error"; cat "$JWORK/$1.err"; exit 1; }
}
# refuse NAME MESSAGE ARGS... — start the daemon, then run sit_batch, on
# the paper schemas with ARGS; expect MESSAGE from both
refuse() {
  NAME=$1 MESSAGE=$2
  shift 2
  "$SERVE" "$DATA/sc1.ecr" "$DATA/sc2.ecr" "$@" \
    --listen "unix:$JWORK/refused.sock" >/dev/null 2>"$JWORK/$NAME.err" &
  RPID=$!
  ( sleep 1; kill -KILL "$RPID" 2>/dev/null ) &
  WATCHDOG=$!
  RC=0
  wait "$RPID" || RC=$?
  kill "$WATCHDOG" 2>/dev/null || true
  refused "$NAME" "$RC" "$MESSAGE"
  RC=0
  "$BATCH" "$DATA/sc1.ecr" "$DATA/sc2.ecr" "$@" >/dev/null \
    2>"$JWORK/$NAME.batch.err" || RC=$?
  refused "$NAME.batch" "$RC" "$MESSAGE"
}
# a schema missing its closing brace
printf 'schema bad {\n  entity X {\n    A : nosuchtype;\n  }\n' >"$JWORK/bad.ecr"
BAD_DDL="$JWORK/bad.ecr:5:1: expected a structure or '}' closing the schema but found end of input"
refuse bad_ddl "$BAD_DDL" "$JWORK/bad.ecr"
RC=0
"$SIT" "$DATA/sc1.ecr" "$DATA/sc2.ecr" "$JWORK/bad.ecr" </dev/null >/dev/null \
  2>"$JWORK/bad_ddl.sit.err" || RC=$?
refused bad_ddl.sit "$RC" "$BAD_DDL"
printf '# a typo\nequiv sc1.Stu-dent.Name sc2.Student.Name\n' >"$JWORK/bad_name.sit"
refuse bad_name "$JWORK/bad_name.sit:2: malformed qualified attribute" \
  --script "$JWORK/bad_name.sit"
printf 'object sc1.Department 1 sc2.Department\nobject sc1.Department 0 sc2.Department\n' >"$JWORK/conflict.sit"
refuse conflict "conflicting assertion between sc1.Department and sc2.Department" \
  --script "$JWORK/conflict.sit"
# a string spanning lines: the error after it names its own line
printf 'instance sc1 {\n  Student { Name = "A\nB" }\n  Ghost { }\n}\n' >"$JWORK/multiline.ecd"
refuse multiline "$JWORK/multiline.ecd:4: unknown structure Ghost" \
  --script "$DATA/paper_session.sit" --data "$JWORK/multiline.ecd"
mkdir -p "$JWORK/data_dir"
refuse data_dir "$JWORK/data_dir: " \
  --script "$DATA/paper_session.sit" --data "$JWORK/data_dir"

# Journaled restarts: the replication log (and its snapshots) is the
# only durable history, so a restart rebuilds the session from the
# files, installs the newest snapshot, defines the --view views and
# replays the logged writes after it.  A manual view serves stale rows
# honestly, which makes it the sharpest probe of that order.
JDIR="$JWORK/dir"
JSOCK="$JWORK/serve.sock"
JLOG="$JWORK/serve.log"
HONORS="honors@manual:sc1=select Name from Student where GPA >= 3.0"

# jstart ARGS... — a journaled daemon on $JSOCK with the honors view
jstart() {
  "$SERVE" "$DATA/sc1.ecr" "$DATA/sc2.ecr" \
    --script "$DATA/paper_session.sit" --data "$DATA/paper_instances.ecd" \
    --journal "$JDIR" --view "$HONORS" "$@" \
    --listen "unix:$JSOCK" >"$JLOG" 2>&1 &
  JPID=$!
  i=0
  while [ ! -S "$JSOCK" ]; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "serve-test: journaled daemon did not come up"; cat "$JLOG"; exit 1; }
    sleep 0.1
  done
}
jstop() {
  kill -TERM "$JPID"
  wait "$JPID" || { echo "serve-test: journaled daemon exited non-zero"; cat "$JLOG"; exit 1; }
  JPID=""
}
# jplay SCHEDULE OUT — replay a schedule file, transcript to OUT
jplay() {
  "$SERVE" --drive "unix:$JSOCK" --schedule "$1" --transcript "$2" \
    || { echo "serve-test: journaled leg: $1 failed"; cat "$JLOG"; exit 1; }
}
cat >"$JWORK/read.txt" <<'EOF'
!phase read serial
{"op":"query","view":"honors"}
EOF
# deleting Ann leaves the manual extent stale: it still lists her
cat >"$JWORK/delete.txt" <<'EOF'
!phase delete serial
{"op":"update","view":"sc1","u":"delete from Student where Name = 'Ann'"}
EOF
# a snapshot, then a suffix the next restart must replay after it
cat >"$JWORK/compact.txt" <<'EOF'
!phase compact serial
{"op":"repl_compact"}
{"op":"refresh_view","view":"honors"}
{"op":"update","view":"sc1","u":"insert into Student { Name = 'Zed', GPA = 3.9 }"}
EOF

jstart
jplay "$JWORK/delete.txt" "$JWORK/delete.out"
jplay "$JWORK/read.txt" "$JWORK/before1.txt"
grep -q '"fresh":false' "$JWORK/before1.txt" \
  || { echo "serve-test: the manual view did not go stale"; cat "$JWORK/before1.txt"; exit 1; }
jstop
# restart 1, compaction off: the startup view, then the whole log
jstart
jplay "$JWORK/read.txt" "$JWORK/after1.txt"
cmp -s "$JWORK/before1.txt" "$JWORK/after1.txt" \
  || { echo "serve-test: the view answered differently after a restart"; cat "$JWORK/before1.txt" "$JWORK/after1.txt"; exit 1; }
jplay "$JWORK/compact.txt" "$JWORK/compact.out"
jplay "$JWORK/read.txt" "$JWORK/before2.txt"
jstop
# restart 2, after repl_compact and with a second --view: the snapshot
# keeps honors as recovered, the new view is defined, the suffix replays
jstart --view "depts@eager:sc1=select Name from Department"
jplay "$JWORK/read.txt" "$JWORK/after2.txt"
cmp -s "$JWORK/before2.txt" "$JWORK/after2.txt" \
  || { echo "serve-test: the view answered differently after a snapshot restart"; cat "$JWORK/before2.txt" "$JWORK/after2.txt"; exit 1; }
"$SERVE" --drive "unix:$JSOCK" --conns 1 --requests 4 --mat depts >/dev/null \
  || { echo "serve-test: a --view added on restart is not served"; cat "$JLOG"; exit 1; }
jstop
# the replication log and its snapshots are all the directory holds
for f in "$JDIR"/*; do
  case "${f##*/}" in
    node_id | repl.journal | repl.snap.*) ;;
    *) echo "serve-test: unexpected file in the journal directory: ${f##*/}"; exit 1 ;;
  esac
done
ls "$JDIR"/repl.snap.* >/dev/null 2>&1 \
  || { echo "serve-test: repl_compact left no snapshot"; exit 1; }

# SIGTERM under writes: four clients stream updates at a journaled
# daemon, which is told to stop mid-stream.  It must drain and exit 0
# within 5 s, and a restart must serve every write answered ok and
# none answered with an error.  A write sent after the drain stopped
# reading gets no answer, and must not be served either.
if command -v python3 >/dev/null 2>&1; then
  WDIR="$JWORK/wdir"
  WSOCK="$JWORK/w.sock"
  WLOG="$JWORK/w.log"
  wstart() {
    "$SERVE" "$DATA/sc1.ecr" "$DATA/sc2.ecr" \
      --script "$DATA/paper_session.sit" --data "$DATA/paper_instances.ecd" \
      --journal "$WDIR" --compact-every 16 --listen "unix:$WSOCK" >"$WLOG" 2>&1 &
    WPID=$!
    i=0
    while [ ! -S "$WSOCK" ]; do
      i=$((i + 1))
      [ "$i" -le 100 ] || { echo "serve-test: write-stream daemon did not come up"; cat "$WLOG"; exit 1; }
      sleep 0.1
    done
  }
  # four connections stream inserts until refused or cut off, and
  # record each write's answer: "ok", an error code, or none
  cat >"$JWORK/stream.py" <<'PY'
import json, socket, sys, threading
sock_path, out_path, ready_path = sys.argv[1:4]
lock = threading.Lock()
outcomes = {}
oks = [0]
def client(c):
    s = socket.socket(socket.AF_UNIX)
    s.settimeout(10)
    s.connect(sock_path)
    f = s.makefile("rw")
    i = 0
    while True:
        name = "W%d_%d" % (c, i)
        i += 1
        u = "insert into Student { Name = '%s', GPA = 3.1 }" % name
        try:
            f.write(json.dumps({"op": "update", "view": "sc1", "u": u}) + "\n")
            f.flush()
            line = f.readline()
        except OSError:
            line = ""
        code = None
        if line:
            r = json.loads(line)
            code = "ok" if r["ok"] else r["error"]["code"]
        with lock:
            outcomes[name] = code
            if code == "ok":
                oks[0] += 1
                if oks[0] == 40:
                    open(ready_path, "w").close()
        if code != "ok":
            break
    s.close()
ts = [threading.Thread(target=client, args=(c,)) for c in range(4)]
for t in ts:
    t.start()
for t in ts:
    t.join()
json.dump(outcomes, open(out_path, "w"))
PY
  wstart
  python3 "$JWORK/stream.py" "$WSOCK" "$JWORK/outcomes.json" "$JWORK/ready" &
  PYPID=$!
  i=0
  while [ ! -e "$JWORK/ready" ]; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "serve-test: the write stream did not start"; cat "$WLOG"; exit 1; }
    sleep 0.1
  done
  kill -TERM "$WPID"
  ( sleep 5; kill -KILL "$WPID" 2>/dev/null ) &
  WATCHDOG=$!
  RC=0
  wait "$WPID" || RC=$?
  kill "$WATCHDOG" 2>/dev/null || true
  WPID=""
  [ "$RC" -eq 0 ] || { echo "serve-test: SIGTERM under writes: exit $RC (137: still running after 5 s)"; cat "$WLOG"; exit 1; }
  grep -q "drained" "$WLOG" || { echo "serve-test: SIGTERM under writes: no drain line"; cat "$WLOG"; exit 1; }
  wait "$PYPID" || { echo "serve-test: SIGTERM under writes: the stream clients failed"; exit 1; }
  wstart
  python3 - "$WSOCK" "$JWORK/outcomes.json" <<'PY' || { echo "serve-test: SIGTERM under writes: the restart lost or invented a write"; cat "$WLOG"; exit 1; }
import json, socket, sys
outcomes = json.load(open(sys.argv[2]))
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
f = s.makefile("rw")
f.write(json.dumps({"op": "query", "view": "sc1", "q": "select Name from Student"}) + "\n")
f.flush()
r = json.loads(f.readline())
assert r["ok"], r
names = {row["Name"] for row in r["rows"]}
ok = [n for n, c in outcomes.items() if c == "ok"]
refused = [n for n, c in outcomes.items() if c != "ok"]
assert len(ok) >= 40, "only %d writes answered ok" % len(ok)
lost = [n for n in ok if n not in names]
assert not lost, "acknowledged writes lost: %s" % lost
invented = [n for n in refused if n in names]
assert not invented, "refused or unanswered writes served: %s" % invented
print("serve-test: SIGTERM under writes: %d ok kept, %d refused or unanswered absent"
      % (len(ok), len(refused)))
PY
  kill -TERM "$WPID"
  wait "$WPID" || { echo "serve-test: restarted write-stream daemon exited non-zero"; cat "$WLOG"; exit 1; }
  WPID=""
else
  echo "serve-test: python3 not found, skipping the SIGTERM-under-writes leg"
fi

echo "serve-test: ok"
