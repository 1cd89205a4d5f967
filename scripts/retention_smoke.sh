#!/usr/bin/env bash
# Lifecycle smoke: time-partitioned retention must hold a durable data
# dir to its disk budget without corrupting what survives.
#
# Phase A (build the history): run examples/loadgen in-process on a
# durable data dir with a tight -retain-bytes. Each synchronized round
# advances the simulated clock one day, so the run spans several time
# buckets; every bucket rollover compacts, compresses the cold buckets
# and prunes oldest-first to the budget. Assert from the committed
# manifest: pruning happened, the live snapshot fits the budget, every
# cold bucket is gzip-compressed, and the directory holds exactly the
# files the manifest names.
#
# Phase B (serve the survivors): boot sheriffd on the pruned dir and
# assert the API agrees with the manifest — pruned rows are gone from
# /api/v1/observations (stream count == live count), no observation
# ever written was lost to anything but retention (live + pruned ==
# total admitted), the folded aggregates cover exactly the surviving
# rows, and a time-bounded query prunes cold buckets from the scan
# (segments_skipped moves, the result set is empty).
#
# Phase C (restart): SIGTERM and boot again — recovery must replay only
# live buckets and refold to the same counts.
#
# Run from the repository root: ./scripts/retention_smoke.sh
# On failure, set SMOKE_ARTIFACT_DIR to keep the data dir + server log.
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:8319}"
SEED=1
LONGTAIL=20
BUDGET=30000 # bytes; calibrated so a 6-round run prunes ~half its buckets

workdir="$(mktemp -d)"
datadir="$workdir/data"
logfile="$workdir/sheriffd.log"
srv_pid=""

cleanup() {
  status=$?
  [ -n "$srv_pid" ] && kill -9 "$srv_pid" 2>/dev/null || true
  if [ "$status" -ne 0 ] && [ -n "${SMOKE_ARTIFACT_DIR:-}" ]; then
    mkdir -p "$SMOKE_ARTIFACT_DIR/retention"
    cp -r "$datadir" "$SMOKE_ARTIFACT_DIR/retention/" 2>/dev/null || true
    cp "$logfile" "$SMOKE_ARTIFACT_DIR/retention/" 2>/dev/null || true
    echo "== lifecycle-smoke: kept artifacts in $SMOKE_ARTIFACT_DIR/retention"
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

say() { echo "== lifecycle-smoke: $*"; }

say "building sheriffd and loadgen"
go build -o "$workdir/sheriffd" ./cmd/sheriffd
go build -o "$workdir/loadgen" ./examples/loadgen

say "phase A: 6 simulated days of crowd load, retain-bytes=$BUDGET"
"$workdir/loadgen" -data-dir "$datadir" -seed "$SEED" -longtail "$LONGTAIL" \
  -users 6 -rounds 6 -retain-bytes "$BUDGET" 2>/dev/null | tee "$workdir/loadgen.out"

# The loadgen server line reports synced_seq — the count of observations
# ever admitted to the durable store, pruned or not.
total_written="$(sed -n 's/.*synced_seq=\([0-9]*\).*/\1/p' "$workdir/loadgen.out")"
[ -n "$total_written" ] && [ "$total_written" -gt 0 ] || {
  say "FAIL: could not read synced_seq from loadgen output"
  exit 1
}
say "phase A: $total_written observations admitted in total"

say "phase A: manifest invariants (budget, compression, no orphans)"
python3 - "$datadir" "$BUDGET" <<'EOF'
import json, os, sys

datadir, budget = sys.argv[1], int(sys.argv[2])
man = json.load(open(os.path.join(datadir, "MANIFEST.json")))

assert man["pruned"]["buckets"] > 0, "tight budget never pruned a bucket"
assert man["pruned"]["rows"] > 0, "pruning dropped buckets but no rows?"

buckets = man["buckets"]
assert len(buckets) >= 2, "expected the active bucket plus survivors, got %d" % len(buckets)
live = sum(b["bytes"] for b in buckets)
assert live <= budget, "live snapshot %dB over the %dB budget" % (live, budget)

newest = max(b["start"] for b in buckets)
named = set()
for b in buckets:
    cold = b["start"] != newest
    assert b.get("compressed", False) == cold, \
        "bucket %d: compressed=%s but cold=%s" % (b["start"], b.get("compressed"), cold)
    for s in b["segments"]:
        assert s["name"].endswith(".gz") == cold, "segment %s misnamed" % s["name"]
        named.add(s["name"])
        ondisk = os.path.getsize(os.path.join(datadir, s["name"]))
        assert ondisk == s["bytes"], \
            "segment %s: %dB on disk, manifest says %d" % (s["name"], ondisk, s["bytes"])

for f in os.listdir(datadir):
    assert not f.endswith(".tmp"), "orphaned temp file %s" % f
    if f.startswith("seg-"):
        assert f in named, "segment %s not named in the manifest" % f
    if f.startswith("wal-"):
        assert f.startswith("wal-%08d-" % man["generation"]), \
            "stale-generation WAL %s (generation %d)" % (f, man["generation"])

print("== lifecycle-smoke: manifest ok: %d live buckets (%dB <= %dB), pruned %d buckets / %d rows"
      % (len(buckets), live, budget, man["pruned"]["buckets"], man["pruned"]["rows"]))
EOF

start_server() {
  "$workdir/sheriffd" -addr "$ADDR" -seed "$SEED" -longtail "$LONGTAIL" \
    -data-dir "$datadir" -fsync always -retain-bytes "$BUDGET" >>"$logfile" 2>&1 &
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

stop_server() {
  kill -TERM "$srv_pid"
  for _ in $(seq 1 50); do
    kill -0 "$srv_pid" 2>/dev/null || break
    sleep 0.2
  done
  srv_pid=""
}

# check_lifecycle asserts the API view of the pruned dir: retention
# totals surfaced, snapshot within budget, stream == live == folded,
# and nothing lost except what retention pruned.
check_lifecycle() {
  live="$(curl -sf "http://$ADDR/api/v1/stats" | python3 -c "
import json, sys
d = json.load(sys.stdin)
dur, ana = d['durable'], d['analysis']
assert dur['pruned_buckets'] > 0 and dur['pruned_rows'] > 0, 'stats lost the pruning totals'
# Eviction never drops the active bucket, so the snapshot may exceed the
# budget only when that one bucket is all that is left.
assert dur['snapshot_bytes'] <= $BUDGET or dur['snapshot_buckets'] == 1, \
    'snapshot %d over budget across %d buckets' % (dur['snapshot_bytes'], dur['snapshot_buckets'])
assert d['observations'] + dur['pruned_rows'] == $total_written, \
    'live %d + pruned %d != written $total_written' % (d['observations'], dur['pruned_rows'])
assert ana['observations_folded'] == d['observations'], \
    'folded %d != live %d' % (ana['observations_folded'], d['observations'])
print(d['observations'])
")"
  stream_rows="$(curl -sf -H 'Accept: application/x-ndjson' "http://$ADDR/api/v1/observations" | wc -l)"
  if [ "$stream_rows" -ne "$live" ]; then
    say "FAIL: stream carried $stream_rows rows, stats say $live live"
    exit 1
  fi
  say "lifecycle consistent ($live live, stream + folded agree, pruned rows gone)"
}

say "phase B: boot sheriffd on the pruned dir"
start_server
grep -q "retention pruned" "$logfile" || {
  say "FAIL: boot log does not report the retention totals"
  cat "$logfile"
  exit 1
}
check_lifecycle

say "phase B: time-bounded queries push down to bucket selection"
curl -sf "http://$ADDR/api/v1/observations?until=2012-01-01T00:00:00Z" \
  | python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["count"] == 0, "rows before the dataset epoch?"'
curl -sf "http://$ADDR/api/v1/stats" | python3 -c '
import json, sys
sc = json.load(sys.stdin)["scan"]
assert sc["segments_skipped"] > 0, "empty-window query skipped no buckets: %r" % sc
'
say "pushdown ok (empty pre-epoch window skipped every bucket)"

say "phase C: restart and re-check"
stop_server
start_server
check_lifecycle
stop_server

grep -q "data dir flushed" "$logfile" || {
  say "FAIL: graceful drain did not flush the data dir"
  cat "$logfile"
  exit 1
}

say "PASS (budget $BUDGET bytes held, $total_written observations accounted for)"
