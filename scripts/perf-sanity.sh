#!/bin/sh
# Perf sanity: the columnar environment store must keep a 100 000-unit
# battle viable end to end.  This is a scale smoke test, not a benchmark
# gate — shared runners are far too noisy to pin ratios, so the bound is
# generous (minutes, where the expected time is tens of seconds) and
# only catastrophic regressions fail it: an accidental O(n^2) path, a
# full-store copy per tick, an index rebuilt per probe.
#
# Usage: scripts/perf-sanity.sh [bound-seconds]
set -eu

cd "$(dirname "$0")/.."

BOUND="${1:-600}"
UNITS=100000
TICKS=5

# Always rebuild: a no-op when the binary is fresh, and never a stale run.
dune build bin/battle_sim.exe
SIM="_build/default/bin/battle_sim.exe"

echo "perf-sanity: $UNITS units, $TICKS ticks, indexed, bound ${BOUND}s"
start=$(date +%s)
if ! timeout "$BOUND" "$SIM" --units "$UNITS" --ticks "$TICKS" \
    --evaluator indexed --seed 11 --metrics perf-sanity-metrics.json; then
  echo "perf-sanity: FAIL: ${UNITS}-unit battle did not complete within ${BOUND}s" >&2
  exit 1
fi
elapsed=$(( $(date +%s) - start ))
echo "perf-sanity: completed in ${elapsed}s (bound ${BOUND}s)"

# The run must actually have taken the columnar access path: COW refresh
# commits count column keeps/copies every tick.
python3 - <<'EOF'
import json
doc = json.dumps(json.load(open("perf-sanity-metrics.json")))
assert "persist.snapshot_cow_hits" in doc or "relalg.column_copies" in doc, \
    "100k run recorded no columnar-store activity"
EOF
echo "perf-sanity: columnar store counters present"
