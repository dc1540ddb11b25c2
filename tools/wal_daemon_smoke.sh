#!/usr/bin/env bash
# Kill/restart harness for the WAL-backed daemons, run under ctest (and the
# CI chaos job). Exercises the full crash-safety story end to end on real
# processes: an aggregatord and an agentd run with --wal-dir, the agent is
# SIGKILLed mid-stream and must log a recovery on restart; the aggregator
# is SIGKILLed and must recover its held sources; and both daemons must
# exit 0 with a graceful drain on SIGTERM. The aggregator re-exports to a
# parent-tier aggregatord throughout, and its kill/restart must cost the
# parent exactly one resync: one more full frame (the new incarnation's
# first), no NAK, and delta frames otherwise. Usage:
#   wal_daemon_smoke.sh <qlove_agentd> <qlove_aggregatord>
set -u

AGENTD="$1"
AGGD="$2"

WORK="$(mktemp -d /tmp/qlove_wal_smoke_XXXXXX)"
AGENT_WAL="$WORK/agent-wal"
AGG_WAL="$WORK/agg-wal"
PORT=$((20000 + RANDOM % 20000))
PARENT_PORT=$((PORT + 1))
TOKEN=smoke-$$

PARENT_PID=""
AGG_PID=""
AGENT_PID=""

fail() {
  echo "FAIL: $*" >&2
  [ -n "$AGENT_PID" ] && kill -9 "$AGENT_PID" 2>/dev/null
  [ -n "$AGG_PID" ] && kill -9 "$AGG_PID" 2>/dev/null
  [ -n "$PARENT_PID" ] && kill -9 "$PARENT_PID" 2>/dev/null
  echo "--- parent log ---" >&2; cat "$WORK/parent.log" >&2 2>/dev/null
  echo "--- aggregator log ---" >&2; cat "$WORK"/agg*.log >&2 2>/dev/null
  echo "--- agent logs ---" >&2; cat "$WORK"/agent*.log >&2 2>/dev/null
  rm -rf "$WORK"
  exit 1
}

wait_for() { # wait_for <pattern> <file> <seconds>
  for _ in $(seq 1 $((10 * $3))); do
    grep -q "$1" "$2" 2>/dev/null && return 0
    sleep 0.1
  done
  return 1
}

# --- parent tier up: receives the aggregator's re-exports -----------------
"$AGGD" --listen=127.0.0.1:$PARENT_PORT --token="$TOKEN" --json-health \
  >"$WORK/parent.log" 2>&1 &
PARENT_PID=$!
wait_for "serving on" "$WORK/parent.log" 5 || fail "parent did not start"
UPLINK="--parent=127.0.0.1:$PARENT_PORT --source=smoke-rack --export-every=1"

# --- aggregator up, with its own WAL --------------------------------------
"$AGGD" --listen=127.0.0.1:$PORT --token="$TOKEN" --wal-dir="$AGG_WAL" \
  $UPLINK >"$WORK/agg.log" 2>&1 &
AGG_PID=$!
wait_for "serving on" "$WORK/agg.log" 5 || fail "aggregator did not start"

# --- agent generation 1: stream ticks, then SIGKILL mid-window ------------
"$AGENTD" --connect=127.0.0.1:$PORT --token="$TOKEN" --source=smoke-host \
  --tick-ms=100 --wal-dir="$AGENT_WAL" >"$WORK/agent1.log" 2>&1 &
AGENT_PID=$!
sleep 1.5
kill -9 "$AGENT_PID" 2>/dev/null || fail "agent gen-1 died early"
wait "$AGENT_PID" 2>/dev/null
AGENT_PID=""
ls "$AGENT_WAL"/wal-*.qwal >/dev/null 2>&1 || fail "agent wrote no wal segments"

# --- agent generation 2: must replay the log, then drain on SIGTERM -------
"$AGENTD" --connect=127.0.0.1:$PORT --token="$TOKEN" --source=smoke-host \
  --tick-ms=100 --wal-dir="$AGENT_WAL" >"$WORK/agent2.log" 2>&1 &
AGENT_PID=$!
wait_for "recovered epoch" "$WORK/agent2.log" 5 \
  || fail "agent gen-2 logged no wal recovery"
sleep 1
kill -TERM "$AGENT_PID"
wait "$AGENT_PID"
AGENT_RC=$?
AGENT_PID=""
[ "$AGENT_RC" -eq 0 ] || fail "agent SIGTERM exit was $AGENT_RC, want 0"
grep -q "clean exit" "$WORK/agent2.log" || fail "agent drain line missing"

# --- aggregator crash: SIGKILL, restart, recover held sources -------------
kill -9 "$AGG_PID" 2>/dev/null || fail "aggregator died early"
wait "$AGG_PID" 2>/dev/null
AGG_PID=""
"$AGGD" --listen=127.0.0.1:$PORT --token="$TOKEN" --wal-dir="$AGG_WAL" \
  $UPLINK --json-health >"$WORK/agg2.log" 2>&1 &
AGG_PID=$!
wait_for "recovered .* sources" "$WORK/agg2.log" 5 \
  || fail "restarted aggregator logged no wal recovery"
wait_for "serving on" "$WORK/agg2.log" 5 || fail "restarted aggregator not up"
# Let the new incarnation re-export a few times (one per second).
sleep 3.5

# --- aggregator graceful drain on SIGTERM ---------------------------------
kill -TERM "$AGG_PID"
wait "$AGG_PID"
AGG_RC=$?
AGG_PID=""
[ "$AGG_RC" -eq 0 ] || fail "aggregator SIGTERM exit was $AGG_RC, want 0"
grep -q '"wal": {"enabled": true' "$WORK/agg2.log" \
  || fail "aggregator json health missing wal block"
grep -q '"recovered_sources": 1' "$WORK/agg2.log" \
  || fail "aggregator json health missing recovered source"

# --- parent: the aggregator restart cost exactly one resync ---------------
kill -TERM "$PARENT_PID"
wait "$PARENT_PID"
PARENT_RC=$?
PARENT_PID=""
[ "$PARENT_RC" -eq 0 ] || fail "parent SIGTERM exit was $PARENT_RC, want 0"
RACK="$(grep -o '"source": "smoke-rack"[^}]*' "$WORK/parent.log")"
[ -n "$RACK" ] || fail "parent json health has no smoke-rack source"
echo "$RACK" | grep -q '"connects": 2,' \
  || fail "parent saw other than two aggregator sessions: $RACK"
echo "$RACK" | grep -q '"full_frames": 2,' \
  || fail "aggregator restart cost the parent other than one resync: $RACK"
echo "$RACK" | grep -q '"delta_frames": [1-9]' \
  || fail "parent received no delta re-exports: $RACK"
grep -q '"resyncs_requested": 0,' "$WORK/parent.log" \
  || fail "parent NAKed a re-export"

rm -rf "$WORK"
echo "OK"
