#!/usr/bin/env bash
# crash-restart.sh proves a cresd result store survives kill -9 in the
# middle of a /fleet sweep. cresd runs on a fresh store at -parallel 1
# and is killed with SIGKILL once store.jsonl holds two records and
# before the sweep's reply is sent. Restarted on the same store, it
# must answer the same sweep byte for byte as an uninterrupted cresd
# on another fresh store does, serving at least two of its cells from
# the records the killed process wrote.
#
# Usage: scripts/crash-restart.sh [path/to/cresd]   (default /tmp/cresd)
set -euo pipefail

CRESD=${1:-/tmp/cresd}
ADDR=127.0.0.1:8378
SWEEP="/fleet?sizes=4,64,512,4096,16384,65536&seed=7"
WORK=$(mktemp -d)
PID=
trap '[ -n "$PID" ] && kill -9 "$PID" 2>/dev/null; rm -rf "$WORK"' EXIT

start() {
  "$CRESD" -listen "$ADDR" -store "$1" -parallel 1 &
  PID=$!
  for _ in $(seq 100); do
    curl -sf "http://$ADDR/healthz" > /dev/null && return 0
    sleep 0.1
  done
  echo "cresd did not start on $ADDR" >&2
  return 1
}

stop() {
  curl -sfS -X POST "http://$ADDR/quit" > /dev/null
  wait "$PID"
  PID=
}

records() { if [ -f "$1/store.jsonl" ]; then wc -l < "$1/store.jsonl"; else echo 0; fi; }

# The reference: an uninterrupted cresd on a fresh store.
start "$WORK/reference"
curl -sfS "http://$ADDR$SWEEP" -o "$WORK/reference.json"
stop

# The crash: send the sweep, then kill -9 once two cells are stored.
start "$WORK/crashed"
curl -sS "http://$ADDR$SWEEP" -o "$WORK/cut.json" 2> /dev/null &
CURL=$!
until [ "$(records "$WORK/crashed")" -ge 2 ]; do
  if ! kill -0 "$CURL" 2> /dev/null; then
    echo "the sweep finished before the store held two records" >&2
    exit 1
  fi
  sleep 0.01
done
{ kill -9 "$PID" && wait "$PID"; } 2> /dev/null || true
PID=
if wait "$CURL"; then
  echo "the sweep was answered before cresd was killed" >&2
  exit 1
fi
echo "killed cresd with $(records "$WORK/crashed") records in the store"

# The restart resumes from what the killed process stored.
start "$WORK/crashed"
curl -sfS -D "$WORK/headers" "http://$ADDR$SWEEP" -o "$WORK/restarted.json"
stop

cmp "$WORK/reference.json" "$WORK/restarted.json"
hits=$(tr -d '\r' < "$WORK/headers" | sed -n 's/^X-Cres-Cache: hit=\([0-9]*\);.*/\1/p')
if [ "${hits:-0}" -lt 2 ]; then
  echo "the restarted sweep served ${hits:-0} cells from the store, want at least 2" >&2
  exit 1
fi
echo "restarted sweep matches the uninterrupted one byte for byte; $hits cells came from the store"
