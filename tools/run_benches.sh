#!/usr/bin/env bash
# Regenerate the perf-trajectory JSONs at the repo root.
#
#   tools/run_benches.sh [BUILD_DIR]            # full run (the committed
#                                               # files; Release, default
#                                               # build dir build-release/)
#   SMOKE=1 tools/run_benches.sh [BUILD_DIR]    # 1-iteration CI smoke: same
#                                               # JSON paths, minimal runtime,
#                                               # any build type
#
# Writes, at the repo root:
#   BENCH_snapshot_ablation.json    (Google Benchmark --benchmark_format=json)
#   BENCH_simulation_overhead.json  (Report JSON via the bench's --json flag)
#   BENCH_scheduler_handoff.json    (Report JSON via the bench's --json flag)
#   BENCH_explore_throughput.json   (schedules/sec + replay overhead rows)
#
# Keep these regenerated-and-committed when a PR claims a hot-path win, so
# the trajectory across commits stays machine-readable.
#
# Full runs PIN -DCMAKE_BUILD_TYPE=Release: the committed numbers are
# perf claims, and the default RelWithDebInfo (or worse, a stray Debug
# cache) makes them quietly incomparable across commits. The default
# build dir is build-release/, auto-configured on first use; an explicit
# BUILD_DIR argument must already be a Release build. SMOKE mode only
# proves the JSON path works, so it accepts any build type (CI reuses
# its ordinary test build).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SMOKE="${SMOKE:-0}"
if [[ "$SMOKE" == "1" ]]; then
  BUILD="${1:-$ROOT/build}"
else
  BUILD="${1:-$ROOT/build-release}"
  if [[ ! -f "$BUILD/CMakeCache.txt" ]]; then
    echo "== configuring Release build in $BUILD"
    cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
  fi
  if ! grep -q '^CMAKE_BUILD_TYPE:[^=]*=Release$' "$BUILD/CMakeCache.txt"; then
    echo "error: $BUILD is not a Release build; full bench runs must be" \
         "Release so the committed JSONs stay comparable" >&2
    echo "       (cmake -B $BUILD -S $ROOT -DCMAKE_BUILD_TYPE=Release)" >&2
    exit 1
  fi
  cmake --build "$BUILD" -j "$(nproc)"
fi

if [[ ! -x "$BUILD/bench_simulation_overhead" ]]; then
  echo "error: benches not built in $BUILD (cmake --build $BUILD -j)" >&2
  exit 1
fi

# --- bench_snapshot_ablation: Google Benchmark JSON on stdout -----------
if [[ -x "$BUILD/bench_snapshot_ablation" ]]; then
  GBENCH_ARGS=(--benchmark_format=json)
  if [[ "$SMOKE" == "1" ]]; then
    # One cheap case, minimal measuring time: keeps the JSON path green
    # without burning CI minutes.
    GBENCH_ARGS+=("--benchmark_filter=BM_AfekSnapshot/4\$"
                  --benchmark_min_time=0.01)
  fi
  echo "== bench_snapshot_ablation ${GBENCH_ARGS[*]}"
  "$BUILD/bench_snapshot_ablation" "${GBENCH_ARGS[@]}" \
      > "$ROOT/BENCH_snapshot_ablation.json"
elif [[ "$SMOKE" == "1" ]]; then
  # The CI smoke exists to prove this path works end to end; a missing
  # binary must fail, not silently validate the stale committed JSON.
  echo "error: bench_snapshot_ablation not built (Google Benchmark absent)" >&2
  exit 1
else
  echo "warning: bench_snapshot_ablation not built (Google Benchmark absent);" \
       "skipping BENCH_snapshot_ablation.json" >&2
fi

# --- table drivers: Report JSON via --json ------------------------------
if [[ "$SMOKE" != "1" ]]; then
  echo "== bench_simulation_overhead"
  "$BUILD/bench_simulation_overhead" \
      --json "$ROOT/BENCH_simulation_overhead.json"
  echo "== bench_scheduler_handoff"
  "$BUILD/bench_scheduler_handoff" \
      --json "$ROOT/BENCH_scheduler_handoff.json"
fi

# --- bench_explore_throughput: schedules/sec + replay overhead ----------
# Cheap enough to run in smoke mode too (tiny budget), so the CI leg
# exercises the JSON path end to end on every commit.
if [[ "$SMOKE" == "1" ]]; then
  echo "== bench_explore_throughput --budget 20"
  "$BUILD/bench_explore_throughput" --budget 20 \
      --json "$ROOT/BENCH_explore_throughput.json"
else
  echo "== bench_explore_throughput"
  "$BUILD/bench_explore_throughput" \
      --json "$ROOT/BENCH_explore_throughput.json"
fi

# --- schema gate: a regeneration that drops a key (or a half-written
# file from an interrupted run) must fail here, not corrupt the committed
# trajectory silently.
echo "== validate_benches.py"
python3 "$ROOT/tools/validate_benches.py" "$ROOT"

# --- events flight-recorder schema gate: a tiny sharded run writes a
# REAL log (spawn -> dispatch -> shutdown per worker), and
# validate_events.py pins its schema — so the recorder and the validator
# cannot drift apart without this script failing.
echo "== validate_events.py"
EVENTS_TMP="$(mktemp "${TMPDIR:-/tmp}/mpcn_events.XXXXXX.jsonl")"
trap 'rm -f "$EVENTS_TMP"' EXIT
"$BUILD/mpcn" run snapshot_churn --in 3,0,1 --inputs 10,11,12 --seeds 1..4 \
    --shards 2 --fork-workers --telemetry-ms 25 --events "$EVENTS_TMP" \
    > /dev/null
python3 "$ROOT/tools/validate_events.py" "$EVENTS_TMP" --expect-workers 2

echo "wrote $(ls "$ROOT"/BENCH_*.json | xargs -n1 basename | tr '\n' ' ')"
