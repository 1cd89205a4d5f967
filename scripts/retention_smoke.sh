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
# cold bucket is gzip-compressed, cold buckets compressed by earlier
# rollovers were carried forward since (with two or more cold buckets,
# some segment names an older generation than the manifest), and the
# directory holds exactly the files the manifest names.
#
# Phase B (serve the survivors): boot sheriffd on the pruned dir and
# assert the API agrees with the manifest — pruned rows are gone from
# /api/v1/observations (stream count == live count), no observation
# ever written was lost to anything but retention (live + pruned ==
# total admitted), the folded aggregates cover exactly the surviving
# rows, and a time-bounded query prunes cold buckets from the scan
# (segments_skipped moves, the result set is empty).
#
# Phase C (restart): assert from the manifest that the served dir holds
# at least two cold buckets, then SIGTERM and boot again — recovery must
# replay only live buckets and rebuild the same counts, the clean
# restart's checkpoint must carry every segment forward (each one the
# manifest named before the restart, cold .gz and active alike, is
# still named after it, with identical bytes), and the event history
# must be the same: the /api/v1/events page and its epoch header are
# byte-identical across the restart, under a nonzero epoch.
#
# Run from the repository root: ./scripts/retention_smoke.sh
# On failure, set SMOKE_ARTIFACT_DIR to keep the data dir + server log.
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:8319}"
SEED=1
LONGTAIL=20
ROUNDS=30    # simulated days; 6 checks a day, ~84 rows, ~1.7 KB gzipped cold
# BUDGET (bytes) is calibrated so that a run always prunes (29 cold days
# outgrow it) yet the budget always has room for a full active day
# (~28 KB uncompressed) plus at least two cold buckets — both at phase A's
# rollover checkpoints and at phase B's boot, whose WAL replay fills the
# active bucket with the whole last day.
BUDGET=38000

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

say "phase A: $ROUNDS simulated days of crowd load, retain-bytes=$BUDGET"
"$workdir/loadgen" -data-dir "$datadir" -seed "$SEED" -longtail "$LONGTAIL" \
  -users 6 -requests $((6 * ROUNDS)) -rounds "$ROUNDS" -retain-bytes "$BUDGET" \
  2>/dev/null | tee "$workdir/loadgen.out"

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
colds = carried = 0
for b in buckets:
    cold = b["start"] != newest
    colds += cold
    assert b.get("compressed", False) == cold, \
        "bucket %d: compressed=%s but cold=%s" % (b["start"], b.get("compressed"), cold)
    for s in b["segments"]:
        assert s["name"].endswith(".gz") == cold, "segment %s misnamed" % s["name"]
        if cold and int(s["name"].split("-")[1]) < man["generation"]:
            carried += 1
        named.add(s["name"])
        ondisk = os.path.getsize(os.path.join(datadir, s["name"]))
        assert ondisk == s["bytes"], \
            "segment %s: %dB on disk, manifest says %d" % (s["name"], ondisk, s["bytes"])

# Each rollover compresses the bucket it turns cold; later checkpoints
# carry that segment forward instead of rewriting it. (How many buckets
# the budget leaves depends on when the rollovers' checkpoints ran.)
assert colds < 2 or carried > 0, \
    "the last checkpoint rewrote all %d cold buckets" % colds

for f in os.listdir(datadir):
    assert not f.endswith(".tmp"), "orphaned temp file %s" % f
    if f.startswith("seg-"):
        assert f in named, "segment %s not named in the manifest" % f
    if f.startswith("wal-"):
        assert f.startswith("wal-%08d-" % man["generation"]), \
            "stale-generation WAL %s (generation %d)" % (f, man["generation"])

print("== lifecycle-smoke: manifest ok: %d live buckets (%dB <= %dB), %d cold, %d cold segments carried, pruned %d buckets / %d rows"
      % (len(buckets), live, budget, colds, carried, man["pruned"]["buckets"], man["pruned"]["rows"]))
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

say "phase C: the served dir holds cold buckets"
colds="$(python3 - "$datadir" <<'EOF'
import json, os, sys
man = json.load(open(os.path.join(sys.argv[1], "MANIFEST.json")))
newest = max(b["start"] for b in man["buckets"])
colds = sum(b["start"] != newest for b in man["buckets"])
assert colds >= 2, "the served dir holds %d cold buckets, want at least 2" % colds
print(colds)
EOF
)"
say "manifest names $colds cold buckets"

# events_view prints the events JSON page, then the epoch header of the
# NDJSON form.
events_view() {
  curl -sf "http://$ADDR/api/v1/events"
  echo
  curl -sf -o /dev/null -D - -H 'Accept: application/x-ndjson' \
    "http://$ADDR/api/v1/events?follow=false" | tr -d '\r' | grep -i '^X-Sheriff-Events-Epoch:'
}
events_before="$(events_view)"

say "phase C: restart and re-check"
stop_server
# segments prints "name size sha256" for each segment the manifest
# names, sorted by name.
segments() {
  python3 - "$datadir" <<'EOF' | sort
import hashlib, json, os, sys
datadir = sys.argv[1]
man = json.load(open(os.path.join(datadir, "MANIFEST.json")))
for b in man["buckets"]:
    for s in b["segments"]:
        data = open(os.path.join(datadir, s["name"]), "rb").read()
        print(s["name"], len(data), hashlib.sha256(data).hexdigest())
EOF
}
before="$(segments)"
[ -n "$before" ] || {
  say "FAIL: the manifest names no segment before the restart"
  exit 1
}
start_server
check_lifecycle
missing="$(comm -23 <(echo "$before") <(segments))"
if [ -n "$missing" ]; then
  say "FAIL: the restart rewrote or dropped segments (name size sha256):"
  echo "$missing"
  exit 1
fi
say "restart carried all $(echo "$before" | wc -l) segments ($(echo "$before" | grep -c '\.gz ' || true) cold) forward byte for byte"
events_after="$(events_view)"
if [ "$events_after" != "$events_before" ]; then
  say "FAIL: the restart changed the event history"
  diff <(echo "$events_before") <(echo "$events_after") || true
  exit 1
fi
epoch="$(echo "$events_after" | sed -n 's/^X-Sheriff-Events-Epoch: *//Ip')"
page_epoch="$(echo "$events_after" | head -1 | python3 -c 'import json,sys; print(json.load(sys.stdin).get("epoch", 0))')"
if [ -z "$epoch" ] || [ "$epoch" = 0 ] || [ "$epoch" != "$page_epoch" ]; then
  say "FAIL: events epoch header '$epoch', page epoch '$page_epoch' (want equal and nonzero)"
  exit 1
fi
say "event history identical across the restart (epoch $epoch)"
stop_server

grep -q "data dir flushed" "$logfile" || {
  say "FAIL: graceful drain did not flush the data dir"
  cat "$logfile"
  exit 1
}

say "PASS (budget $BUDGET bytes held, $colds cold buckets served, $total_written observations accounted for)"
