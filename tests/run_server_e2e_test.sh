#!/usr/bin/env bash
# End-to-end CTest driver for the network serving subsystem, using the real
# binaries: one `xpathsat_server` on a unix socket, driven by concurrent
# `xpathsat_cli --connect` clients.
#
# Phase 1 (shared warm engine): two clients run the same workload
# CONCURRENTLY against one server; afterwards a third client replays the
# workload and must see memo hits on every result line plus cross-client
# evidence in the shared `stats` JSON.
#
# Phase 2 (cancellation): against a --threads 1 --no-memo server, a client
# floods the lone worker with NP head-of-line searches, then cancels the
# still-queued tail ticket by its acked id. The submission/decide speed gap
# makes success overwhelmingly likely per attempt; the loop retries a few
# times so scheduler noise cannot flake the test.
#
# Usage: run_server_e2e_test.sh <xpathsat_server> <xpathsat_cli> <work-dir>
set -u

SERVER_BIN=$1
CLI_BIN=$2
WORK_DIR=$3

fail() { echo "FAIL: $*" >&2; exit 1; }

rm -rf "$WORK_DIR"
mkdir -p "$WORK_DIR"
cd "$WORK_DIR" || fail "cannot enter $WORK_DIR"

cat > heavy.dtd <<'EOF'
root catalog
catalog -> section*
section -> heading, item*, appendix
heading -> eps
item -> title, price, (variant + eps), note*
title -> eps
price -> eps
variant -> swatch, swatch*
swatch -> eps
note -> ref
ref -> eps
appendix -> note*
EOF

SERVER_PID=
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -TERM "$SERVER_PID" 2>/dev/null
    wait "$SERVER_PID" 2>/dev/null
  fi
}
trap cleanup EXIT

start_server() { # args: extra server flags...; sets SERVER_PID, waits for readiness
  rm -f e2e.sock server.out
  "$SERVER_BIN" --unix e2e.sock "$@" > server.out 2> server.err &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    grep -q "listening unix" server.out 2>/dev/null && return 0
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server died: $(cat server.err)"
    sleep 0.1
  done
  fail "server never became ready"
}

stop_server() {
  kill -TERM "$SERVER_PID" || fail "cannot signal server"
  wait "$SERVER_PID" || fail "server exited nonzero"
  SERVER_PID=
}

make_workload() { # args: dtd-name out-file
  local name=$1 out=$2
  {
    echo "dtd $name heavy.dtd"
    for q in "section/item" "**/note" "section/heading" "**/item[title]" \
             "section/item[title && note]" "nosuchlabel"; do
      for _ in 1 2 3; do echo "query $name $q"; done
    done
    echo "flush"
    echo "quit"
  } > "$out"
}

expect_in() { # args: needle file
  grep -qF -- "$1" "$2" || fail "missing '$1' in $2:
$(cat "$2")"
}

wait_for_in() { # args: needle file; polls for up to 5 s, then expect_in
  for _ in $(seq 1 50); do
    grep -qF -- "$1" "$2" 2>/dev/null && return 0
    sleep 0.1
  done
  expect_in "$1" "$2"
}

# ---- Phase 1: two concurrent clients + memo-warm replay -------------------
start_server

make_workload alpha alpha.txt
make_workload beta beta.txt
"$CLI_BIN" --connect unix:e2e.sock < alpha.txt > alpha.out 2>&1 &
ALPHA_PID=$!
"$CLI_BIN" --connect unix:e2e.sock < beta.txt > beta.out 2>&1 &
BETA_PID=$!
wait "$ALPHA_PID" || fail "alpha client failed: $(cat alpha.out)"
wait "$BETA_PID" || fail "beta client failed: $(cat beta.out)"

for out in alpha.out beta.out; do
  expect_in "ok dtd" "$out"
  expect_in "ok flush" "$out"
  expect_in "ok quit" "$out"
  expect_in "[unsat  ] nosuchlabel" "$out"
  n_results=$(grep -c -- " -- " "$out") || true
  [ "$n_results" -eq 18 ] || fail "$out: expected 18 result lines, got $n_results"
done

# Replay on a fresh connection: every verdict must come from the memo the
# first two clients primed (cross-client memo hits), and the shared stats
# JSON must show the one compiled schema serving all registrations.
{
  echo "dtd gamma heavy.dtd"
  sed -n 's/^query alpha /query gamma /p' alpha.txt
  echo "flush"
  echo "stats"
  echo "metrics"
  echo "metrics prom"
  echo "slow"
  echo "quit"
} | "$CLI_BIN" --connect unix:e2e.sock > gamma.out 2>&1 \
  || fail "gamma client failed: $(cat gamma.out)"

n_results=$(grep -c -- " -- " gamma.out) || true
[ "$n_results" -eq 18 ] || fail "gamma: expected 18 result lines, got $n_results"
n_memo=$(grep -- " -- " gamma.out | grep -c " memo") || true
[ "$n_memo" -eq 18 ] || fail "gamma: expected all 18 results memo-warm, got $n_memo:
$(cat gamma.out)"
# Socket-served `stats` is the same merged object as `health`: server
# connection counters wrapping the engine stats.
expect_in 'stats {"status": "ok"' gamma.out
expect_in '"connections_active": ' gamma.out
expect_in '"requests": 54' gamma.out
expect_in '"dtd_cache_misses": 1' gamma.out
expect_in '"dtd_cache_hits": 2' gamma.out
# The metrics surfaces over a live socket: per-phase histograms and
# per-route counters in the JSON object, the Prometheus exposition with its
# EOF marker, and the (possibly empty) slow-query drain.
expect_in 'metrics {"uptime_ms"' gamma.out
expect_in '"request_total_ns"' gamma.out
expect_in '"memo-hit"' gamma.out
expect_in 'xpathsat_request_total_ns_count' gamma.out
expect_in '{route="memo-hit"}' gamma.out
expect_in 'xpathsat_worker_queue_wait_ns_count' gamma.out
expect_in '# EOF' gamma.out
expect_in 'slow {"dropped"' gamma.out

# Batch framing over the real socket: negotiate with `hello batch`, submit
# three members under one barrier, and check the ack/results/done shape. The
# memo the earlier clients primed answers all three instantly, which is the
# point: the barrier ordering must hold even when results race the ack.
{
  echo "hello batch"
  echo "dtd zeta heavy.dtd"
  echo "batch 3"
  echo "query zeta section/item"
  echo "query zeta **/note"
  echo "query zeta nosuchlabel"
  echo "flush"
  echo "quit"
} | "$CLI_BIN" --connect unix:e2e.sock > zeta.out 2>&1 \
  || fail "zeta client failed: $(cat zeta.out)"
expect_in "ok hello batch" zeta.out
grep -qE '^ok batch [0-9]+ ids [0-9]+ [0-9]+ [0-9]+$' zeta.out \
  || fail "zeta: no batch ack carrying 3 ticket ids:
$(cat zeta.out)"
grep -qE '^ok batch [0-9]+ done$' zeta.out \
  || fail "zeta: batch done barrier never arrived:
$(cat zeta.out)"
n_results=$(grep -c -- " -- " zeta.out) || true
[ "$n_results" -eq 3 ] || fail "zeta: expected 3 batched results, got $n_results"
expect_in "[unsat  ] nosuchlabel" zeta.out

# Without the grant, `batch` is refused with err batch-mismatch and the
# session stays usable: the quit on the same connection still answers.
printf 'batch 2\nquit\n' | "$CLI_BIN" --connect unix:e2e.sock > nogrant.out 2>&1 \
  || fail "nogrant client failed: $(cat nogrant.out)"
expect_in "err batch-mismatch" nogrant.out
expect_in "ok quit" nogrant.out

stop_server
# The server's shutdown stats line repeats the shared JSON (54 requests from
# the three workload clients plus zeta's 3 batched members).
expect_in '"requests": 57' server.out

# ---- Phase 2: cancel a still-queued ticket by id --------------------------
# Also exercises --metrics-dump-ms: the server dumps the merged metrics JSON
# to stderr while it runs. The phase can finish inside one dump interval, so
# the check below waits for the first dump before stopping the server.
start_server --threads 1 --no-memo --metrics-dump-ms 200

cancelled=0
for attempt in $(seq 1 5); do
  {
    echo "dtd cat heavy.dtd"
    # NP head-of-line work (hundreds of microseconds per decision on one
    # worker) arriving at submission speed: the tail stays queued long
    # enough to cancel it from the same connection.
    for _ in $(seq 1 200); do echo "query cat **/item[title && note]"; done
    echo "query cat section/item"
    echo "cancel FIRST+200"
    echo "flush"
    echo "quit"
  } > cancel_template.txt

  # Ticket ids are engine-global and acked as `ok query ID`; learn the base
  # id with a 1-query probe, then target base+201 (200 heavy + 1 tail).
  probe=$(printf 'dtd p heavy.dtd\nquery p section/item\nflush\nquit\n' \
          | "$CLI_BIN" --connect unix:e2e.sock | sed -n 's/^ok query //p')
  [ -n "$probe" ] || fail "probe client got no ack"
  target=$((probe + 201))
  sed "s/cancel FIRST+200/cancel $target/" cancel_template.txt \
    | "$CLI_BIN" --connect unix:e2e.sock > cancel.out 2>&1 \
    || fail "cancel client failed: $(cat cancel.out)"
  if grep -q "ok cancel $target" cancel.out; then
    expect_in "$target [unknown] section/item -- cancelled" cancel.out
    cancelled=1
    break
  fi
  echo "attempt $attempt: tail ticket already ran; retrying" >&2
done
[ "$cancelled" -eq 1 ] || fail "cancel-by-id never won in 5 attempts"

wait_for_in 'metrics {"uptime_ms"' server.err
stop_server
expect_in '"cancellations": 1' server.out

# ---- Phase 3: warm restart (--save-on-exit -> --warm-from) ----------------
# Prime a server, let SIGTERM write the snapshot, restart --warm-from it:
# the restarted process must answer the whole replay from the warmed memo
# (every result line memo-tagged) and surface the load in its store stats.
start_server --save-on-exit warm.snap

make_workload delta delta.txt
"$CLI_BIN" --connect unix:e2e.sock < delta.txt > delta.out 2>&1 \
  || fail "delta client failed: $(cat delta.out)"
expect_in "ok flush" delta.out

stop_server
expect_in "saved snapshot warm.snap" server.err
[ -s warm.snap ] || fail "--save-on-exit left no snapshot"

start_server --warm-from warm.snap
expect_in "warmed from warm.snap" server.err

{
  echo "dtd epsilon heavy.dtd"
  sed -n 's/^query delta /query epsilon /p' delta.txt
  echo "flush"
  echo "stats"
  # The wire verbs too: a live save, a reload of it, and the structured
  # errors for a corrupt file and a future-version file.
  echo "save wire.snap"
  echo "load wire.snap"
  echo "load corrupt.snap"
  echo "load vfuture.snap"
  echo "quit"
} > epsilon.txt
printf 'NOTASNAP....' > corrupt.snap
cp warm.snap vfuture.snap
printf '\x63' | dd of=vfuture.snap bs=1 seek=8 count=1 conv=notrunc 2>/dev/null

"$CLI_BIN" --connect unix:e2e.sock < epsilon.txt > epsilon.out 2>&1 \
  || fail "epsilon client failed: $(cat epsilon.out)"

# First and every verdict of the restarted process comes from the warmed
# memo: no connection primed it in THIS process lifetime.
n_results=$(grep -c -- " -- " epsilon.out) || true
[ "$n_results" -eq 18 ] || fail "epsilon: expected 18 result lines, got $n_results"
n_memo=$(grep -- " -- " epsilon.out | grep -c " memo") || true
[ "$n_memo" -eq 18 ] || fail "epsilon: expected all 18 results memo-warm after restart, got $n_memo:
$(cat epsilon.out)"
expect_in '"store_dtds_loaded": 1' epsilon.out
expect_in '"store_memos_loaded": 6' epsilon.out
expect_in '"dtd_cache_hits": 1' epsilon.out
expect_in 'ok save dtds=1 memos=6' epsilon.out
expect_in 'ok load dtds=1' epsilon.out
expect_in 'err store-corrupt' epsilon.out
expect_in 'err store-version' epsilon.out

stop_server
# Cumulative: 6 memos from --warm-from plus 6 from the wire `load`; the
# corrupt and future-version files contributed nothing but the version
# reject counter.
expect_in '"store_memos_loaded": 12' server.out
expect_in '"store_version_rejects": 1' server.out

echo "server e2e: concurrent clients, cross-client memo, cancel-by-id, warm restart OK"
