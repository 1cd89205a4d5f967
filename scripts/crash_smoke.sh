#!/usr/bin/env bash
# Crash-recovery smoke: a durable sheriffd must survive kill -9 without
# losing anything it had flushed.
#
# Phase 1 (quiesced kill): drive crowd load through examples/loadgen to
# completion, record /api/v1/stats observations (the flush point — under
# -fsync always every completed check is durable), kill -9 the server,
# restart on the same -data-dir and assert the observation count matches
# the flush point exactly.
#
# Phase 2 (mid-round kill): kill -9 while a loadgen round is in flight —
# the WAL may end in a torn record — then restart and assert recovery
# succeeds with at least the phase-1 flush point intact and a consistent
# /api/v1/stats.
#
# Phase 3 (compaction kill): on a multi-bucket data dir with a tiny
# -compact-wal-bytes, every few checks trigger a checkpoint that
# rewrites and gzip-recompresses the cold buckets. kill -9 under that
# load lands inside or between compactions; restart must recover to the
# committed manifest + WAL tail and leave no orphans — every seg-* file
# named in the manifest, no *.tmp, no stale-generation WALs.
#
# Run from the repository root: ./scripts/crash_smoke.sh
# On failure, set SMOKE_ARTIFACT_DIR to keep the data dirs + server log.
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:8317}"
SEED=1
LONGTAIL=20

workdir="$(mktemp -d)"
datadir="$workdir/data"
logfile="$workdir/sheriffd.log"
srv_pid=""

cleanup() {
  status=$?
  [ -n "$srv_pid" ] && kill -9 "$srv_pid" 2>/dev/null || true
  if [ "$status" -ne 0 ] && [ -n "${SMOKE_ARTIFACT_DIR:-}" ]; then
    mkdir -p "$SMOKE_ARTIFACT_DIR/crash"
    cp -r "$workdir"/data* "$SMOKE_ARTIFACT_DIR/crash/" 2>/dev/null || true
    cp "$logfile" "$SMOKE_ARTIFACT_DIR/crash/" 2>/dev/null || true
    echo "== crash-smoke: kept artifacts in $SMOKE_ARTIFACT_DIR/crash"
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

say() { echo "== crash-smoke: $*"; }

say "building sheriffd and loadgen"
go build -o "$workdir/sheriffd" ./cmd/sheriffd
go build -o "$workdir/loadgen" ./examples/loadgen

# start_server [extra sheriffd flags...] boots on $datadir.
start_server() {
  "$workdir/sheriffd" -addr "$ADDR" -seed "$SEED" -longtail "$LONGTAIL" \
    -data-dir "$datadir" -fsync always "$@" >>"$logfile" 2>&1 &
  srv_pid=$!
  for _ in $(seq 1 150); do
    if curl -sf "http://$ADDR/api/v1/stats" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.2
  done
  say "server did not come up"
  cat "$logfile"
  exit 1
}

observations() {
  curl -sf "http://$ADDR/api/v1/stats" | python3 -c 'import json,sys; print(json.load(sys.stdin)["observations"])'
}

# check_v1_surface cross-checks the v1 read paths on a live server: a
# paginated page must come back with a cursor, and the NDJSON stream
# must carry exactly one line per observation the stats count.
check_v1_surface() {
  v1="$(observations)"
  page_rows="$(curl -sf "http://$ADDR/api/v1/observations?limit=5" \
    | python3 -c 'import json,sys; d=json.load(sys.stdin); print(d["count"], "cursor" if d.get("next_cursor") else "nocursor")')"
  if [ "$page_rows" != "5 cursor" ]; then
    say "FAIL: v1 pagination returned '$page_rows', want '5 cursor'"
    exit 1
  fi
  stream_rows="$(curl -sf -H 'Accept: application/x-ndjson' "http://$ADDR/api/v1/observations" | wc -l)"
  if [ "$stream_rows" -ne "$v1" ]; then
    say "FAIL: NDJSON stream carried $stream_rows rows, want $v1"
    exit 1
  fi
  say "v1 surface consistent ($v1 observations, paginated + streamed)"
}

durable_fsync() {
  curl -sf "http://$ADDR/api/v1/stats" | python3 -c 'import json,sys; print(json.load(sys.stdin)["durable"]["fsync"])'
}

# variation_events counts the TypeVariation entries in the event history.
# The folded group ratio is monotone, so each product group crosses the
# threshold exactly once — the count must survive a kill -9 recovery
# rebuild exactly.
variation_events() {
  curl -sf "http://$ADDR/api/v1/events" \
    | python3 -c 'import json,sys; print(sum(1 for e in json.load(sys.stdin)["events"] if e["type"]=="variation"))'
}

# check_analysis cross-checks the incremental engine against the store on
# a live server: every store row folded, and the event history parses
# with strictly increasing sequence numbers.
check_analysis() {
  curl -sf "http://$ADDR/api/v1/stats" | python3 -c '
import json,sys
d = json.load(sys.stdin)
a = d.get("analysis")
assert a is not None, "stats missing the analysis block"
folded, obs = a["observations_folded"], d["observations"]
assert folded == obs, "folded %d != store %d" % (folded, obs)
'
  curl -sf "http://$ADDR/api/v1/events" | python3 -c '
import json,sys
evs = json.load(sys.stdin)["events"]
seqs = [e["seq"] for e in evs]
assert seqs == sorted(set(seqs)), "event seqs not strictly increasing"
'
  say "analysis block consistent (folded == observations, event seqs strict)"
}

say "phase 1: boot on an empty data dir"
start_server
[ "$(durable_fsync)" = "always" ] || { say "stats missing the durable block"; exit 1; }

say "phase 1: drive a full loadgen run"
"$workdir/loadgen" -addr "http://$ADDR" -seed "$SEED" -longtail "$LONGTAIL" \
  -users 6 -rounds 2

flush_point="$(observations)"
say "phase 1: flush point = $flush_point observations"
[ "$flush_point" -gt 0 ] || { say "no observations recorded"; exit 1; }

say "phase 1: v1 surface (loadgen drove POST /api/v1/checks through the SDK)"
check_v1_surface
check_analysis
events_flush="$(variation_events)"
say "phase 1: $events_flush variation events at the flush point"

say "phase 1: kill -9 (quiesced) and restart"
kill -9 "$srv_pid"
wait "$srv_pid" 2>/dev/null || true
start_server

recovered="$(observations)"
say "phase 1: recovered = $recovered observations"
if [ "$recovered" -ne "$flush_point" ]; then
  say "FAIL: quiesced kill lost data ($recovered != $flush_point)"
  cat "$logfile"
  exit 1
fi
grep -q "recovered $flush_point observations" "$logfile" || {
  say "FAIL: boot log does not report the recovery"
  cat "$logfile"
  exit 1
}

say "phase 1: event history rebuilt from recovery"
events_recovered="$(variation_events)"
if [ "$events_recovered" -ne "$events_flush" ]; then
  say "FAIL: recovery rebuilt $events_recovered variation events, flush point had $events_flush"
  exit 1
fi
check_analysis

say "phase 2: kill -9 mid-round"
"$workdir/loadgen" -addr "http://$ADDR" -seed "$SEED" -longtail "$LONGTAIL" \
  -users 6 -rounds 50 -requests 3000 >/dev/null 2>&1 &
load_pid=$!
sleep 3
kill -9 "$srv_pid"
wait "$srv_pid" 2>/dev/null || true
wait "$load_pid" 2>/dev/null || true

say "phase 2: restart over the torn tail"
start_server
recovered2="$(observations)"
say "phase 2: recovered = $recovered2 observations"
if [ "$recovered2" -lt "$recovered" ]; then
  say "FAIL: mid-round kill lost pre-kill data ($recovered2 < $recovered)"
  cat "$logfile"
  exit 1
fi

say "phase 2: v1 surface after torn-tail recovery"
check_v1_surface
check_analysis
events_torn="$(variation_events)"
if [ "$events_torn" -lt "$events_flush" ]; then
  say "FAIL: torn-tail recovery lost variation events ($events_torn < $events_flush)"
  exit 1
fi

say "phase 2: clean shutdown still works"
kill -TERM "$srv_pid"
for _ in $(seq 1 50); do
  kill -0 "$srv_pid" 2>/dev/null || break
  sleep 0.2
done
grep -q "data dir flushed" "$logfile" || {
  say "FAIL: graceful drain did not flush the data dir"
  cat "$logfile"
  exit 1
}
grep -q "event log sealed" "$logfile" || {
  say "FAIL: graceful drain did not seal the event log"
  cat "$logfile"
  exit 1
}
srv_pid=""

say "phase 3: seed a multi-bucket dir (6 simulated days, cold buckets gzipped)"
datadir="$workdir/data3"
"$workdir/loadgen" -data-dir "$datadir" -seed "$SEED" -longtail "$LONGTAIL" \
  -users 6 -rounds 6 -retain-bytes 10000000 >/dev/null 2>&1

say "phase 3: kill -9 under constant compaction (compact-wal-bytes=32768)"
start_server -compact-wal-bytes 32768
seeded="$(observations)"
[ "$seeded" -gt 0 ] || { say "phase 3 seed dir recovered empty"; exit 1; }
"$workdir/loadgen" -addr "http://$ADDR" -seed "$SEED" -longtail "$LONGTAIL" \
  -users 6 -rounds 50 -requests 3000 >/dev/null 2>&1 &
load_pid=$!
sleep 2
kill -9 "$srv_pid"
wait "$srv_pid" 2>/dev/null || true
wait "$load_pid" 2>/dev/null || true

say "phase 3: restart over the interrupted compaction"
start_server -compact-wal-bytes 32768
recovered3="$(observations)"
say "phase 3: recovered = $recovered3 observations (seeded $seeded)"
if [ "$recovered3" -lt "$seeded" ]; then
  say "FAIL: compaction kill lost seeded data ($recovered3 < $seeded)"
  cat "$logfile"
  exit 1
fi
check_v1_surface
check_analysis

say "phase 3: no orphans — the directory holds exactly what the manifest names"
python3 - "$datadir" <<'EOF'
import json, os, sys

datadir = sys.argv[1]
man = json.load(open(os.path.join(datadir, "MANIFEST.json")))
named = {s["name"] for b in man["buckets"] for s in b["segments"]}
files = os.listdir(datadir)
for f in files:
    assert not f.endswith(".tmp"), "orphaned temp file %s" % f
    if f.startswith("seg-"):
        assert f in named, "segment %s not named in the manifest" % f
    if f.startswith("wal-"):
        assert f.startswith("wal-%08d-" % man["generation"]), \
            "stale-generation WAL %s (generation %d)" % (f, man["generation"])
assert any(f.endswith(".gz") for f in files), "no compressed cold segment survived"
print("== crash-smoke: %d segments, generation %d, no orphans"
      % (len(named), man["generation"]))
EOF

say "phase 3: clean shutdown"
kill -TERM "$srv_pid"
for _ in $(seq 1 50); do
  kill -0 "$srv_pid" 2>/dev/null || break
  sleep 0.2
done
srv_pid=""

say "PASS (flush point $flush_point, post-crash $recovered2, post-compaction-kill $recovered3)"
