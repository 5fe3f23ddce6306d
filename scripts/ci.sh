#!/usr/bin/env bash
# Continuous-integration entry point: static analysis first, then builds and
# tests in three configurations, then a chaos invariant-fuzzing smoke pass
# under sanitizers, then a telemetry smoke pass, then the campaign
# interruption drill and the perf-regression gate.
#
#   0. Static analysis                  — builds only the two static gates
#      (radiocast_lint + radiocast_analyze, which link radiocast_json but
#      NOT the simulator library) and runs them BEFORE any other compile
#      stage: the determinism lint over src/ bench/ tests/ tools/
#      examples/, then the semantic analysis suite (architecture layering
#      gate, determinism taint pass, engine/protocol contract checker,
#      hot-path hygiene) over src/ tools/ bench/. A wall-clock seed, a raw
#      std::mt19937, or an upward #include fails CI in seconds, not after
#      a full build. clang-tidy (config pinned in .clang-tidy) then runs
#      over the library sources via the exported compile_commands.json —
#      MANDATORY: a host without clang-tidy fails this stage unless
#      RADIOCAST_SKIP_CLANG_TIDY=1 is set explicitly. The stage ends with
#      a per-tool runtime summary. The JSON reports both gates write are
#      schema-validated in stage 1, once radiocast_inspect is built.
#   1. Release build (build/)           — cmake + ctest, the tier-1 gate.
#      RADIOCAST_WERROR=ON (the default) promotes the hardened warning set
#      (-Wshadow -Wconversion -Wsign-conversion -Wextra-semi -Wpedantic)
#      to errors.
#   2. Sanitizer build (build-san/)     — address+undefined via
#      -DRADIOCAST_SANITIZE=address,undefined, full ctest under
#      instrumentation.
#   3. Thread-sanitizer build (build-tsan/) — -DRADIOCAST_SANITIZE=thread;
#      runs the parallel-execution, simulator, and chaos suites with
#      RADIOCAST_THREADS=4 so parallel_run_trials genuinely shards across
#      workers under TSan on any host (the env default makes every
#      threads=0 call site parallel, and determinism tests pass at any
#      worker count by construction). chaos_test additionally drives the
#      soa engine's intra-step sharding (step_threads=2..4, grain=1), so
#      the two-phase fork/join and ordered shard merges are TSan-checked.
#   4. Chaos smoke (build-san/ci-chaos) — radiocast_chaos fuzzes ~200
#      seeded fault-model × protocol × graph scenarios under asan/ubsan,
#      checking the ten simulator invariants (radio rule, crash/partition
#      masking, replay determinism, engine bit-identity, zero-intensity
#      identity); ANY violation fails CI, and the emitted
#      radiocast.chaos.v1 report must pass `radiocast_inspect validate`.
#   5. Telemetry smoke (build/ci-smoke) — every bench with RADIOCAST_SMOKE=1
#      (first sweep point, ≤2 trials), then `radiocast_inspect validate` on
#      each emitted BENCH_*.json. Runs in
#      a scratch directory so the committed full-run artifacts at the
#      repository root are untouched.
#   6. Campaign smoke + regression gate (build/ci-campaign) — the
#      interruption drill: runs a 4-shard campaign, stops it after 2 shards
#      (--stop-after), resumes it, merges, validates the merged artifact,
#      and diffs it against an uninterrupted single-pass merge — the two
#      must be bit-identical outside wall-clock keys. Then the
#      perf-regression gate: `radiocast_inspect regress` compares stage 5's
#      fresh smoke artifacts against every committed bench/baselines/ file
#      and fails CI on any gated move (see scripts/update_baselines.sh).
#
# Every ctest invocation carries --timeout 300 so a hung test (deadlocked
# pool, runaway adversary) fails the stage instead of wedging CI.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== [0/7] Static analysis (lint + semantic passes + clang-tidy) ==="
# Configure-only is enough to export compile_commands.json for clang-tidy;
# the only targets built here are the two standalone static gates, so a
# seeded violation fails in seconds without compiling the simulator.
stage0_started=$SECONDS
cmake -B build -S .
cmake --build build --parallel --target radiocast_lint radiocast_analyze
t_build=$((SECONDS - stage0_started))

t0=$SECONDS
build/tools/radiocast_lint --root . --json build/lint-report.json
t_lint=$((SECONDS - t0))

t0=$SECONDS
build/tools/radiocast_analyze --root . --json build/analysis-report.json
t_analyze=$((SECONDS - t0))

t0=$SECONDS
if [ "${RADIOCAST_SKIP_CLANG_TIDY:-0}" = "1" ]; then
  echo "clang-tidy: skipped (RADIOCAST_SKIP_CLANG_TIDY=1)"
elif command -v clang-tidy >/dev/null 2>&1; then
  echo "--- clang-tidy (checks pinned in .clang-tidy) ---"
  clang-tidy -p build --quiet src/*/*.cpp tools/*.cpp tools/lint/*.cpp \
    tools/analyze/*.cpp
else
  echo "ci: clang-tidy is required for stage 0; install it or set" >&2
  echo "ci: RADIOCAST_SKIP_CLANG_TIDY=1 to skip explicitly" >&2
  exit 1
fi
t_tidy=$((SECONDS - t0))

echo "--- stage 0 runtimes: build ${t_build}s, lint ${t_lint}s," \
  "analyze ${t_analyze}s, clang-tidy ${t_tidy}s ---"

echo "=== [1/7] Release build + tests ==="
cmake --build build --parallel
# Stage 0's reports get their schema check here, now that
# radiocast_inspect exists.
build/tools/radiocast_inspect validate build/lint-report.json \
  build/analysis-report.json
ctest --test-dir build --output-on-failure --timeout 300

echo "=== [2/7] Sanitizer build + tests (address,undefined) ==="
cmake -B build-san -S . -DRADIOCAST_SANITIZE=address,undefined
cmake --build build-san --parallel
ctest --test-dir build-san --output-on-failure --timeout 300

echo "=== [3/7] Thread-sanitizer build + parallel tests ==="
cmake -B build-tsan -S . -DRADIOCAST_SANITIZE=thread
cmake --build build-tsan --parallel --target parallel_test sim_test \
  chaos_test
# chaos_test rides along for the intra-step-sharded soa engine: its SoA
# leg forces step_threads=2 / grain=1 on every sampled scenario (and the
# broken-merge case runs 4 shards), so soa_run's shard fork/join and the
# ordered phase merges execute under TSan on every push; sim_test's
# observation case shards both phases at 4 step threads.
# RADIOCAST_THREADS=4 makes every threads=0 call site (including
# run_options::step_threads=0) genuinely parallel on any host.
RADIOCAST_THREADS=4 ctest --test-dir build-tsan --output-on-failure \
  --timeout 300 -R 'parallel_test|sim_test|chaos_test'

echo "=== [4/7] Chaos smoke (invariant fuzzing under asan/ubsan) ==="
chaos_dir=build-san/ci-chaos
rm -rf "$chaos_dir"
mkdir -p "$chaos_dir"
cmake --build build-san --parallel --target radiocast_chaos
# ~200 seeded fault-model × protocol × graph scenarios; the tool exits
# non-zero on ANY invariant violation, so this line IS the gate. The
# sanitizer build doubles the payoff: every fuzzed scenario also runs
# under asan/ubsan.
build-san/tools/radiocast_chaos --runs 200 --seed 1 \
  --out "$chaos_dir"/chaos-report.json
build/tools/radiocast_inspect validate "$chaos_dir"/chaos-report.json

echo "=== [5/7] Telemetry smoke + schema validation ==="
smoke_dir=build/ci-smoke
rm -rf "$smoke_dir"
mkdir -p "$smoke_dir"
for b in build/bench/*; do
  if [ -f "$b" ] && [ -x "$b" ]; then
    echo "--- $(basename "$b") ---"
    (cd "$smoke_dir" && RADIOCAST_SMOKE=1 "../../$b")
  fi
done
build/tools/radiocast_inspect validate "$smoke_dir"/BENCH_*.json
# The throughput bench carries the soa-engine speedup gate (the bench
# itself RC_CHECKs soa > reference and bit-identical results); make
# its artifact's presence and schema an explicit CI requirement rather
# than a side effect of the wildcard above.
if [ ! -f "$smoke_dir"/BENCH_simulator_throughput.json ]; then
  echo "ci: BENCH_simulator_throughput.json missing from smoke run" >&2
  exit 1
fi
build/tools/radiocast_inspect validate \
  "$smoke_dir"/BENCH_simulator_throughput.json

echo "=== [6/7] Campaign smoke (interrupt/resume/merge) + regression gate ==="
campaign_dir=build/ci-campaign
rm -rf "$campaign_dir"
mkdir -p "$campaign_dir"
cmake --build build --parallel --target radiocast_campaign
cat > "$campaign_dir"/manifest.json <<'EOF'
{
  "schema": "radiocast.campaign.v1",
  "name": "ci-smoke-campaign",
  "base_seed": 1,
  "trials_per_point": 4,
  "shard_size": 2,
  "threads": 2,
  "max_steps": 100000,
  "grid": [
    {"family": "complete-layered", "n": 48, "d": 6, "protocol": "decay"},
    {"family": "layered-fat", "n": 64, "d": 4, "protocol": "kp",
     "known_d": 4}
  ]
}
EOF
# Interruption drill: 4 shards total — stop after 2, resume, merge.
build/tools/radiocast_campaign run "$campaign_dir"/manifest.json \
  --out "$campaign_dir"/interrupted --stop-after 2
build/tools/radiocast_campaign run "$campaign_dir"/manifest.json \
  --out "$campaign_dir"/interrupted
build/tools/radiocast_campaign merge "$campaign_dir"/manifest.json \
  --out "$campaign_dir"/interrupted \
  --output "$campaign_dir"/merged-interrupted.json
# Control: the same campaign in one uninterrupted pass.
build/tools/radiocast_campaign run "$campaign_dir"/manifest.json \
  --out "$campaign_dir"/straight
build/tools/radiocast_campaign merge "$campaign_dir"/manifest.json \
  --out "$campaign_dir"/straight \
  --output "$campaign_dir"/merged-straight.json
build/tools/radiocast_inspect validate \
  "$campaign_dir"/merged-interrupted.json \
  "$campaign_dir"/merged-straight.json
# Resume bit-identity: the merges must agree outside wall-clock keys
# (radiocast_inspect diff excludes those by default and exits non-zero on
# any other difference).
build/tools/radiocast_inspect diff \
  "$campaign_dir"/merged-interrupted.json \
  "$campaign_dir"/merged-straight.json
# Perf-regression gate: stage 5's fresh smoke artifacts vs every committed
# baseline (one per bench harness). Deterministic keys gate exactly:
# steps.mean in both directions, values.steps to the step, timeout_rate
# never up. The throughput bench's wall-clock-derived ratios get an
# extra-wide tolerance because smoke-mode runs (≤2 trials) are noisy on
# shared CI hosts — the bench separately RC_CHECKs soa > reference, so a
# real engine regression still fails stage 5.
for baseline in bench/baselines/BENCH_*.json; do
  name=$(basename "$baseline")
  if [ ! -f "$smoke_dir/$name" ]; then
    echo "ci: $name has a baseline but no fresh smoke artifact" >&2
    exit 1
  fi
  if [ "$name" = BENCH_simulator_throughput.json ]; then
    build/tools/radiocast_inspect regress "$baseline" "$smoke_dir/$name" \
      --tolerance speedup=75 --tolerance off_over_on=75
  else
    build/tools/radiocast_inspect regress "$baseline" "$smoke_dir/$name"
  fi
done

echo "ci: all seven stages passed"
