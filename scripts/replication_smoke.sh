#!/usr/bin/env bash
# Replication smoke: a sheriffd -follow read replica must track a live
# primary, survive kill -9 + restart, and ride out a primary restart —
# ending byte-identical to the primary every time.
#
# Phase 1 (attach mid-run): start a durable primary, drive crowd load
# through examples/loadgen, attach the follower while the load is still
# running, and once the load completes assert the follower catches up to
# lag 0 with a byte-identical NDJSON export and matching variation-event
# counts (event histories are byte-identical under serialized writers —
# pinned by the differential test — but concurrent checks fold into the
# primary's engine in completion order while a follower folds in
# sequence order, so here the order-independent count is the law). The
# follower's v1 surface must report its role, refuse writes with the
# typed read_only error and answer readyz ready; the primary must
# answer the retired pre-v1 /api/stats alias with a 404.
#
# Phase 2 (kill -9 the follower): kill -9 the follower, advance the
# primary with another load round, restart the follower and assert it
# re-syncs — streaming resumes from its (fresh) applied sequence and the
# final dataset matches the primary byte for byte again.
#
# Phase 3 (primary restart): gracefully restart the durable primary
# under the still-running follower. The follower must reconnect on its
# own, resume from its last applied sequence (a nonzero cursor this
# time — its state survived), apply the post-restart load, and converge
# to equality once more. The replication epoch persists in the
# primary's manifest, so the follower keeps trusting the stream.
#
# Run from the repository root: ./scripts/replication_smoke.sh
# On failure, set SMOKE_ARTIFACT_DIR to keep the data dir + both logs.
set -euo pipefail

P_ADDR="${P_ADDR:-127.0.0.1:8317}"
F_ADDR="${F_ADDR:-127.0.0.1:8318}"
SEED=1
LONGTAIL=20

workdir="$(mktemp -d)"
datadir="$workdir/data"
p_log="$workdir/primary.log"
f_log="$workdir/follower.log"
p_pid=""
f_pid=""

cleanup() {
  status=$?
  [ -n "$p_pid" ] && kill -9 "$p_pid" 2>/dev/null || true
  [ -n "$f_pid" ] && kill -9 "$f_pid" 2>/dev/null || true
  if [ "$status" -ne 0 ] && [ -n "${SMOKE_ARTIFACT_DIR:-}" ]; then
    mkdir -p "$SMOKE_ARTIFACT_DIR/replication"
    cp -r "$datadir" "$SMOKE_ARTIFACT_DIR/replication/" 2>/dev/null || true
    cp "$p_log" "$f_log" "$SMOKE_ARTIFACT_DIR/replication/" 2>/dev/null || true
    echo "== replication-smoke: kept artifacts in $SMOKE_ARTIFACT_DIR/replication"
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

say() { echo "== replication-smoke: $*"; }

say "building sheriffd and loadgen"
go build -o "$workdir/sheriffd" ./cmd/sheriffd
go build -o "$workdir/loadgen" ./examples/loadgen

wait_http() { # wait_http <addr>
  for _ in $(seq 1 150); do
    if curl -sf "http://$1/api/v1/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.2
  done
  say "server on $1 did not come up"
  cat "$p_log" "$f_log" 2>/dev/null || true
  exit 1
}

start_primary() {
  "$workdir/sheriffd" -addr "$P_ADDR" -seed "$SEED" -longtail "$LONGTAIL" \
    -data-dir "$datadir" -fsync always >>"$p_log" 2>&1 &
  p_pid=$!
  wait_http "$P_ADDR"
}

start_follower() {
  "$workdir/sheriffd" -addr "$F_ADDR" -seed "$SEED" -longtail "$LONGTAIL" \
    -follow "http://$P_ADDR" >>"$f_log" 2>&1 &
  f_pid=$!
  wait_http "$F_ADDR"
}

repl_field() { # repl_field <addr> <field>
  curl -sf "http://$1/api/v1/stats" \
    | python3 -c "import json,sys; print(json.load(sys.stdin)['replication'].get('$2', 0))"
}

# wait_caught_up blocks until the follower's applied watermark equals the
# primary's current one.
wait_caught_up() {
  want="$(repl_field "$P_ADDR" watermark)"
  for _ in $(seq 1 300); do
    got="$(repl_field "$F_ADDR" watermark)"
    if [ "$got" = "$want" ] && [ "$(repl_field "$F_ADDR" lag)" = "0" ]; then
      return 0
    fi
    sleep 0.2
  done
  say "FAIL: follower stuck at $got, primary at $want"
  cat "$f_log"
  exit 1
}

# assert_identical compares the full NDJSON export and the event history
# byte for byte across the two nodes.
assert_identical() {
  curl -sf -H 'Accept: application/x-ndjson' "http://$P_ADDR/api/v1/observations" >"$workdir/p.ndjson"
  curl -sf -H 'Accept: application/x-ndjson' "http://$F_ADDR/api/v1/observations" >"$workdir/f.ndjson"
  if ! cmp -s "$workdir/p.ndjson" "$workdir/f.ndjson"; then
    say "FAIL: NDJSON exports differ"
    diff "$workdir/p.ndjson" "$workdir/f.ndjson" | head -5
    exit 1
  fi
  rows="$(wc -l <"$workdir/p.ndjson")"
  say "datasets identical ($rows rows)"
}

# variation_events counts TypeVariation entries: each product group
# crosses the threshold exactly once no matter how its rows are batched
# or ordered, so the count must agree across the cluster.
variation_events() { # variation_events <addr>
  curl -sf "http://$1/api/v1/events" \
    | python3 -c 'import json,sys; print(sum(1 for e in json.load(sys.stdin)["events"] if e["type"]=="variation"))'
}

assert_events_agree() {
  p_ev="$(variation_events "$P_ADDR")"
  f_ev="$(variation_events "$F_ADDR")"
  if [ "$p_ev" != "$f_ev" ]; then
    say "FAIL: variation events differ (primary $p_ev, follower $f_ev)"
    exit 1
  fi
  say "variation events agree ($p_ev)"
}

say "phase 1: start the primary and drive load"
start_primary
"$workdir/loadgen" -addr "http://$P_ADDR" -seed "$SEED" -longtail "$LONGTAIL" \
  -users 6 -rounds 2 >/dev/null 2>&1 &
load_pid=$!
sleep 1

say "phase 1: attach the follower mid-run"
start_follower
role="$(repl_field "$F_ADDR" role)"
[ "$role" = "follower" ] || { say "FAIL: follower reports role '$role'"; exit 1; }
wait "$load_pid"
wait_caught_up
assert_identical
assert_events_agree

say "phase 1: follower surface — read-only, ready, deprecation headers"
ro="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$F_ADDR/api/v1/checks" -d '{}')"
[ "$ro" = "403" ] || { say "FAIL: follower write answered $ro, want 403"; exit 1; }
curl -sf -X POST "http://$F_ADDR/api/v1/checks" -d '{}' -o /dev/null 2>/dev/null || true
code="$(curl -s -X POST "http://$F_ADDR/api/v1/checks" -d '{}' \
  | python3 -c 'import json,sys; print(json.load(sys.stdin)["error"]["code"])')"
[ "$code" = "read_only" ] || { say "FAIL: follower write code '$code'"; exit 1; }
loc="$(curl -s -D - -o /dev/null -X POST "http://$F_ADDR/api/v1/checks" -d '{}' \
  | tr -d '\r' | awk 'tolower($1)=="location:" {print $2}')"
case "$loc" in
  "http://$P_ADDR"*) : ;;
  *) say "FAIL: read_only Location '$loc' does not point at the primary"; exit 1 ;;
esac
ready="$(curl -s -o /dev/null -w '%{http_code}' "http://$F_ADDR/api/v1/readyz")"
[ "$ready" = "200" ] || { say "FAIL: caught-up follower readyz = $ready"; exit 1; }
retired="$(curl -s -o /dev/null -w '%{http_code}' "http://$P_ADDR/api/stats")"
[ "$retired" = "404" ] || { say "FAIL: retired /api/stats answered $retired, want 404"; exit 1; }
say "read_only 403 + Location, readyz ready, retired /api/stats 404"

say "phase 2: kill -9 the follower and advance the primary"
kill -9 "$f_pid"
wait "$f_pid" 2>/dev/null || true
f_pid=""
"$workdir/loadgen" -addr "http://$P_ADDR" -seed "$SEED" -longtail "$LONGTAIL" \
  -users 6 -rounds 2 >/dev/null 2>&1

say "phase 2: restart the follower and re-sync"
start_follower
wait_caught_up
assert_identical
assert_events_agree
grep -q "following http://$P_ADDR" "$f_log" || {
  say "FAIL: follower boot log missing the replication banner"
  cat "$f_log"
  exit 1
}

say "phase 3: graceful primary restart under a live follower"
pre_restart_applied="$(repl_field "$F_ADDR" last_applied)"
kill -TERM "$p_pid"
for _ in $(seq 1 50); do
  kill -0 "$p_pid" 2>/dev/null || break
  sleep 0.2
done
p_pid=""
start_primary
"$workdir/loadgen" -addr "http://$P_ADDR" -seed "$SEED" -longtail "$LONGTAIL" \
  -users 6 -rounds 2 >/dev/null 2>&1
wait_caught_up
post_restart_applied="$(repl_field "$F_ADDR" last_applied)"
if [ "$post_restart_applied" -le "$pre_restart_applied" ]; then
  say "FAIL: follower did not advance past its pre-restart cursor ($post_restart_applied <= $pre_restart_applied)"
  exit 1
fi
grep -q "reconnecting" "$f_log" || {
  say "FAIL: follower log shows no reconnect across the primary restart"
  cat "$f_log"
  exit 1
}
assert_identical
say "follower resumed from seq $pre_restart_applied and reached $post_restart_applied across the primary restart"

say "phase 3: clean shutdown of both nodes"
kill -TERM "$f_pid" "$p_pid"
for _ in $(seq 1 50); do
  if ! kill -0 "$f_pid" 2>/dev/null && ! kill -0 "$p_pid" 2>/dev/null; then
    break
  fi
  sleep 0.2
done
f_pid=""
p_pid=""

say "PASS (final dataset $rows rows, follower cursor $post_restart_applied)"
