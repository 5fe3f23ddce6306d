#!/usr/bin/env bash
# Regenerates the committed perf-regression baselines in bench/baselines/:
# one BENCH_<name>.json per bench/bench_*.cpp harness.
#
# The baselines are SMOKE-MODE artifacts (RADIOCAST_SMOKE=1: first sweep
# point, ≤2 trials) so regeneration takes seconds and the deterministic
# keys (steps, steps.mean, timeout_rate) are bit-stable across hosts. The
# wall-clock-derived keys (speedup, off_over_on, steps_per_sec_*) are host
# noise; `radiocast_inspect regress` compares them with a wide directional
# tolerance, so committing baselines from any reasonable machine is fine.
#
# The paper-experiment benches pin the reproduction itself: 13 of them
# carry steps.mean, which regress gates exactly (a seed-fixed step count
# that moves in either direction means the algorithm changed).
# bench_selective_family and bench_universal_sequence measure family and
# sequence sizes, not broadcast runs, so their cases carry no steps.mean
# and gate only timeout_rate.
#
# Run this ONLY when a deliberate change moves a gated value (e.g. a
# protocol change that alters step counts) — the diff it produces is the
# reviewable record of what moved. CI (scripts/ci.sh, campaign-smoke
# stage) fails when fresh smoke artifacts regress against these files.
#
# Usage: scripts/update_baselines.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir=${1:-build}
baseline_dir=bench/baselines

cmake -B "$build_dir" -S .
cmake --build "$build_dir" --parallel

mkdir -p "$baseline_dir"
for src in bench/bench_*.cpp; do
  bench=$(basename "$src" .cpp)
  echo "--- $bench (smoke mode) ---"
  (cd "$baseline_dir" && RADIOCAST_SMOKE=1 "../../$build_dir/bench/$bench")
done

"$build_dir"/tools/radiocast_inspect validate "$baseline_dir"/BENCH_*.json

echo "update_baselines: wrote $(ls "$baseline_dir" | wc -l) artifacts to $baseline_dir/"
echo "update_baselines: commit the diff alongside the change that moved it"
