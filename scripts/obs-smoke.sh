#!/bin/sh
# Observability smoke: a 10 000-unit battle serving the live endpoint,
# curled mid-run (/metrics, /health, one /query), with the flight
# recorder streaming to disk — then the final state digest must be
# bit-identical to the same battle with observability disabled.  This is
# the end-to-end form of the differential guarantee the unit tests pin
# in-process: serving diagnostics never perturbs the simulation.
#
# Usage: scripts/obs-smoke.sh [port]
# Artifacts (obs-smoke-flight.dump, *.out, *.json) are left in place on
# failure so CI can upload them.
set -eu

cd "$(dirname "$0")/.."

PORT="${1:-8399}"
UNITS=10000
TICKS=30
ARGS="--units $UNITS --ticks $TICKS --evaluator indexed --seed 13"
BASE="http://127.0.0.1:$PORT"

# Always rebuild: a no-op when the binary is fresh, and never a stale run.
dune build bin/battle_sim.exe
SIM="_build/default/bin/battle_sim.exe"

rm -f obs-smoke-flight.dump

fail() {
  echo "obs-smoke: FAIL: $*" >&2
  exit 1
}

# --- the observability-off reference ---------------------------------------
echo "== reference run (observability off)"
"$SIM" $ARGS --summary-json obs-off-summary.json > obs-off.out 2>&1

# --- the observed run: server + streamed flight dump -----------------------
# --sleep-ms keeps the battle alive long enough for the curls to land
# mid-run rather than racing the final tick.
echo "== observed run (--obs-port $PORT, flight streaming)"
"$SIM" $ARGS --obs-port "$PORT" --dump-flight obs-smoke-flight.dump \
    --summary-json obs-on-summary.json --sleep-ms 20 > obs-on.out 2>&1 &
PID=$!

# /health answers 503 until the first tick commits; poll it to readiness
READY=0
for _ in $(seq 1 100); do
  if curl -fsS "$BASE/health" -o health.json 2>/dev/null; then
    READY=1
    break
  fi
  kill -0 "$PID" 2>/dev/null || fail "battle exited before the endpoint came up (see obs-on.out)"
  sleep 0.2
done
[ "$READY" = 1 ] || fail "endpoint never became ready on port $PORT"
echo "   /health: $(cat health.json)"

curl -fsS "$BASE/metrics" -o metrics.txt || fail "/metrics curl failed"
grep -q '^# TYPE sgl_' metrics.txt || fail "/metrics is not Prometheus exposition"
grep -q 'sgl_sim_tick_seconds' metrics.txt || fail "/metrics lacks the tick histogram"
grep -q '^sgl_sim_index_builds{registry="sim"} ' metrics.txt \
  || fail "/metrics lacks the ledger's index builds"
DUP=$(grep '^# TYPE ' metrics.txt | awk '{print $3}' | sort | uniq -d)
[ -z "$DUP" ] || fail "/metrics repeats # TYPE for: $DUP"
echo "   /metrics: $(wc -l < metrics.txt) lines of exposition"

curl -fsS "$BASE/query?q=count(*)%20where%20e.health%20%3E%200" -o query.json \
  || fail "/query curl failed"
python3 - query.json <<'EOF' || fail "/query answer malformed (see query.json)"
import json, sys
doc = json.load(open(sys.argv[1]))
assert isinstance(doc["value"], int) and doc["value"] > 0, doc
assert doc["correlated"] is False
print("   /query: %d units alive at tick %d" % (doc["value"], doc["tick"]))
EOF

wait "$PID" || fail "observed run exited non-zero (see obs-on.out)"

# --- the differential guarantee, end to end --------------------------------
python3 - obs-off-summary.json obs-on-summary.json <<'EOF' \
  || fail "observability changed the simulation"
import json, sys
off = json.load(open(sys.argv[1]))
on = json.load(open(sys.argv[2]))
for k in ("tick", "units", "digest", "deaths", "resurrections"):
    assert off[k] == on[k], "%s: off=%r on=%r" % (k, off[k], on[k])
print("   digest %s identical with and without observability" % on["digest"])
EOF

# the streamed dump must load and cover the whole run
"$SIM" --print-flight obs-smoke-flight.dump > flight-summary.json \
  || fail "flight dump did not load"
python3 - flight-summary.json <<'EOF' || fail "flight dump incomplete"
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["torn"] is False and doc["records"] == 30 and doc["last_tick"] == 30, doc
print("   flight: %d record(s), ticks %d..%d"
      % (doc["records"], doc["first_tick"], doc["last_tick"]))
EOF

rm -f obs-off.out obs-on.out obs-off-summary.json obs-on-summary.json \
  health.json metrics.txt query.json flight-summary.json
echo "obs-smoke: OK"
