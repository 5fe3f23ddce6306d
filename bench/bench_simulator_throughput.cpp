// Wall-clock microbenchmarks (google-benchmark) for the simulator itself —
// not a paper experiment, but the substrate-cost baseline that tells you
// how far the step-count experiments can be scaled.
//
// Also the guard for the observability contract: the step loop must cost
// the same with metrics DISABLED (null registry — the default for every
// experiment) as it did before instrumentation existed. The main() below
// measures the disabled path against the fully-enabled path and asserts
// the disabled path is not slower (within a noise margin): if the null
// checks ever stop being free, this bench fails.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/runner.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "util/assert.h"

namespace radiocast {
namespace {

void bm_decay_layered(benchmark::State& state) {
  const auto n = static_cast<node_id>(state.range(0));
  graph g = make_complete_layered_uniform(n, 16);
  const auto proto = make_protocol("decay", n - 1);
  std::uint64_t seed = 1;
  std::int64_t steps = 0;
  for (auto _ : state) {
    run_options opts;
    opts.seed = seed++;
    const run_result r = run_broadcast(g, *proto, opts);
    benchmark::DoNotOptimize(r.informed_step);
    steps += r.steps;
  }
  state.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(bm_decay_layered)->Arg(256)->Arg(1024)->Arg(4096);

void bm_kp_layered(benchmark::State& state) {
  const auto n = static_cast<node_id>(state.range(0));
  graph g = make_complete_layered_uniform(n, n / 8);
  const auto proto = make_protocol("kp", n - 1, n / 8);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    run_options opts;
    opts.seed = seed++;
    const run_result r = run_broadcast(g, *proto, opts);
    benchmark::DoNotOptimize(r.informed_step);
  }
}
BENCHMARK(bm_kp_layered)->Arg(256)->Arg(1024)->Arg(4096);

void bm_select_and_send_tree(benchmark::State& state) {
  const auto n = static_cast<node_id>(state.range(0));
  rng gen(5);
  graph g = make_random_tree(n, gen);
  const auto proto = make_protocol("select-and-send", n - 1);
  for (auto _ : state) {
    run_options opts;
    opts.max_steps = 100'000'000;
    opts.stop = stop_condition::all_halted;
    const run_result r = run_broadcast(g, *proto, opts);
    benchmark::DoNotOptimize(r.steps);
  }
}
BENCHMARK(bm_select_and_send_tree)->Arg(256)->Arg(1024);

void bm_graph_generation(benchmark::State& state) {
  const auto n = static_cast<node_id>(state.range(0));
  for (auto _ : state) {
    graph g = make_complete_layered_uniform(n, 16);
    benchmark::DoNotOptimize(g.edge_count());
  }
}
BENCHMARK(bm_graph_generation)->Arg(1024)->Arg(4096);

// --------------------------------------------------------------------------
// Metrics-overhead guard.
// --------------------------------------------------------------------------

// Seeded broadcasts per timed rep: at n=512 one run is about 2 ms, so a
// single run would leave the guards' 0.5 ms slack worth 25% of it.
constexpr int kSeedsPerRep = 8;

// Wall-clock of one rep: kSeedsPerRep broadcasts, seeds 42, 43, … (the
// same seeds in both configurations, so both do identical work).
double rep_wall_ms(const graph& g, const protocol& proto,
                   obs::metrics_registry* metrics) {
  if (metrics != nullptr) metrics->clear();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kSeedsPerRep; ++i) {
    run_options opts;
    opts.seed = 42 + static_cast<std::uint64_t>(i);
    opts.metrics = metrics;
    RC_CHECK(run_broadcast(g, proto, opts).completed);
  }
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void check_metrics_overhead(bench::reporter& rep) {
  const node_id n = bench::smoke() ? 512 : 2048;
  const int reps = bench::smoke() ? 3 : 7;
  graph g = make_complete_layered_uniform(n, 16);
  const auto proto = make_protocol("decay", n - 1);
  // Warm up caches/allocator so neither configuration pays first-run costs.
  rep_wall_ms(g, *proto, nullptr);

  // Minimum over reps (the least noise-contaminated estimate of the true
  // cost), alternating the configurations so host drift hits both.
  obs::metrics_registry metrics;
  double off_ms = 1e300;
  double on_ms = 1e300;
  for (int i = 0; i < reps; ++i) {
    off_ms = std::min(off_ms, rep_wall_ms(g, *proto, nullptr));
    on_ms = std::min(on_ms, rep_wall_ms(g, *proto, &metrics));
  }
  const double ratio = off_ms / on_ms;

  obs::json_value values = obs::json_value::object();
  values.set("n", n);
  values.set("reps", reps);
  values.set("seeds_per_rep", kSeedsPerRep);
  values.set("metrics_off_min_ms", off_ms);
  values.set("metrics_on_min_ms", on_ms);
  values.set("off_over_on", ratio);
  rep.add_analytic_case("metrics_overhead/decay/n=" + std::to_string(n),
                        bench::params("n", n, "protocol", "decay"),
                        std::move(values), off_ms + on_ms);

  std::cout << "metrics overhead guard: off=" << off_ms << "ms on=" << on_ms
            << "ms (off/on=" << ratio << ")\n";
  // The disabled path must not be slower than the enabled one beyond
  // scheduling noise — i.e. null-registry instrumentation is free. The
  // margin is generous (25% + 0.5ms) because the runs are short.
  RC_CHECK_MSG(off_ms <= on_ms * 1.25 + 0.5,
               "metrics-disabled step loop measurably slower than "
               "metrics-enabled: the null-check fast path has regressed");
  // The mirror image: recording must cost a small fraction of the run.
  // Protocols write through handles resolved once per run; a name lookup
  // per transmitting node per step (the metrics tax) cost Decay 1.7–2.2×
  // here and trips this.
  RC_CHECK_MSG(on_ms <= off_ms * 1.25 + 0.5,
               "metrics-enabled step loop measurably slower than "
               "metrics-disabled: a protocol is paying per-write registry "
               "lookups instead of writing through obs::handle");
}

// --------------------------------------------------------------------------
// Parallel trial-throughput measurement.
// --------------------------------------------------------------------------

// Times the same seeded trial batch serially and sharded over 4 workers,
// checks the shards are bit-identical to the serial records, and reports
// the trial-throughput speedup in the telemetry. The speedup is a
// MEASUREMENT, not an assertion: on a multi-core host it should reach ≥2×
// at 4 threads; on a single-core host (hardware_threads() == 1) the best
// possible value is ~1×, so the artifact records hardware_threads
// alongside it for interpretation.
void check_parallel_speedup(bench::reporter& rep) {
  const node_id n = bench::smoke() ? 256 : 1024;
  const int trials = bench::smoke() ? 8 : 48;
  const int par_threads = 4;
  graph g = make_complete_layered_uniform(n, 16);
  const auto proto = make_protocol("decay", n - 1);

  auto timed = [&](int threads, trial_set* out) {
    trial_options topts;
    topts.trials = trials;
    topts.base_seed = 7;
    topts.threads = threads;
    const auto start = std::chrono::steady_clock::now();
    *out = parallel_run_trials(g, *proto, topts);
    return std::chrono::duration_cast<
               std::chrono::duration<double, std::milli>>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  trial_set warmup;
  timed(par_threads, &warmup);  // touch caches, spawn-thread warm-up

  trial_set serial, parallel;
  const double serial_ms = timed(1, &serial);
  const double parallel_ms = timed(par_threads, &parallel);

  // The determinism contract, enforced where the speedup is measured.
  RC_CHECK(serial.trials.size() == parallel.trials.size());
  for (std::size_t i = 0; i < serial.trials.size(); ++i) {
    const trial_record& a = serial.trials[i];
    const trial_record& b = parallel.trials[i];
    RC_CHECK_MSG(a.seed == b.seed && a.completed == b.completed &&
                     a.steps == b.steps && a.informed_step == b.informed_step &&
                     a.transmissions == b.transmissions &&
                     a.collisions == b.collisions &&
                     a.deliveries == b.deliveries,
                 "parallel trial records diverged from serial ones");
  }

  const double speedup = parallel_ms > 0.0 ? serial_ms / parallel_ms : 1.0;
  obs::json_value values = obs::json_value::object();
  values.set("n", n);
  values.set("trials", trials);
  values.set("threads", par_threads);
  values.set("hardware_threads", exec::hardware_threads());
  values.set("serial_wall_ms", serial_ms);
  values.set("parallel_wall_ms", parallel_ms);
  values.set("speedup", speedup);
  rep.add_analytic_case(
      "parallel_trials/decay/n=" + std::to_string(n),
      bench::params("n", n, "protocol", "decay", "threads", par_threads),
      std::move(values), serial_ms + parallel_ms);

  std::cout << "parallel trial throughput: serial=" << serial_ms
            << "ms threads=" << par_threads << " parallel=" << parallel_ms
            << "ms (speedup=" << speedup
            << "x, hardware threads=" << exec::hardware_threads() << ")\n";
}

// --------------------------------------------------------------------------
// Engine speedup measurement.
// --------------------------------------------------------------------------

// Minimum wall-clock and step count of the same seeded run (min over
// reps, as in check_metrics_overhead), with the fastest rep's result.
struct engine_timing {
  double min_ms = 1e300;
  std::int64_t steps = 0;
  run_result result;
};

engine_timing time_runs(const graph& g, const protocol& proto, int reps,
                        const run_options& opts) {
  engine_timing out;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    run_result r = run_broadcast(g, proto, opts);
    const double ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            std::chrono::steady_clock::now() - start)
            .count();
    out.steps = r.steps;
    // radiocast-analyze: allow(taint) -- min-of-reps selection between
    // bit-identical runs (same seed and options); timing picks which copy
    // to keep, never what it contains.
    if (ms < out.min_ms) {
      out.min_ms = ms;
      out.result = std::move(r);
    }
  }
  return out;
}

// One serial run to completion under `engine`. Every run uses seed 42, so
// both engines do identical protocol work.
run_options serial_run(step_engine engine) {
  run_options opts;
  opts.seed = 42;
  opts.max_steps = 10'000'000;
  opts.engine = engine;
  opts.step_threads = 1;
  return opts;
}

void require_identical(const run_result& a, const run_result& b,
                       const std::string& what) {
  RC_CHECK_MSG(a.steps == b.steps && a.informed_step == b.informed_step &&
                   a.transmissions == b.transmissions &&
                   a.collisions == b.collisions &&
                   a.deliveries == b.deliveries &&
                   a.informed_at == b.informed_at,
               what);
}

// Times the reference engine (phase 1 over all n nodes) against the soa
// engine at one step thread (phase 1 over the awake set) on a topology
// built to keep the awake set small for most of the run: a thin chain of
// d − 1 single-node layers with all the slack in the LAST layer, so the
// awake set stays ≤ a handful of nodes until the wave reaches the fat
// layer. Checks the two engines produce bit-identical results where the
// speedup is measured, and asserts the soa engine actually wins. The
// ratio itself is printed, not recorded: it moves with the oracle's
// speed as much as with the soa loop's, so the artifact's gated soa
// figure is steps_per_sec_soa.
void check_engine_speedup(bench::reporter& rep) {
  const node_id n = bench::smoke() ? 2048 : 16384;
  const int d = bench::smoke() ? 128 : 512;
  const int reps = bench::smoke() ? 3 : 5;
  // Fat layer last: awake-set size stays O(1) for d − 1 of the d hops.
  graph g = make_complete_layered_fat(n, d, /*fat_index=*/d);
  const auto proto = make_protocol("decay", n - 1);

  // Warm-up, then min-of-reps per engine.
  time_runs(g, *proto, 1, serial_run(step_engine::soa));
  const engine_timing ref =
      time_runs(g, *proto, reps, serial_run(step_engine::reference));
  const engine_timing soa =
      time_runs(g, *proto, reps, serial_run(step_engine::soa));
  RC_CHECK(ref.result.completed);

  // Bit-identity enforced where the speedup is measured.
  require_identical(ref.result, soa.result,
                    "soa engine diverged from the reference engine");

  const double steps_per_sec_ref =
      static_cast<double>(ref.steps) / (ref.min_ms / 1000.0);
  const double steps_per_sec_soa =
      static_cast<double>(soa.steps) / (soa.min_ms / 1000.0);
  const double speedup = soa.min_ms > 0.0 ? ref.min_ms / soa.min_ms : 1.0;

  obs::json_value values = obs::json_value::object();
  values.set("n", n);
  values.set("d", d);
  values.set("reps", reps);
  values.set("steps", soa.steps);
  values.set("reference_min_ms", ref.min_ms);
  values.set("soa_min_ms", soa.min_ms);
  values.set("steps_per_sec_reference", steps_per_sec_ref);
  values.set("steps_per_sec_soa", steps_per_sec_soa);
  rep.add_analytic_case(
      "engine_speedup/decay/layered_fat/n=" + std::to_string(n) +
          "/d=" + std::to_string(d),
      bench::params("n", n, "protocol", "decay", "d", d),
      std::move(values), ref.min_ms + soa.min_ms);

  std::cout << "soa engine speedup: reference=" << ref.min_ms
            << "ms soa=" << soa.min_ms << "ms over " << soa.steps
            << " steps (speedup=" << speedup << "x, "
            << steps_per_sec_soa << " steps/s)\n";
  // The soa engine must actually be faster on its home turf — a large
  // deep network where awake ≪ n for most steps. The hard floor here is
  // >1× so noisy CI hosts don't flake, with the measured ratio recorded in
  // the artifact.
  RC_CHECK_MSG(speedup > 1.0,
               "soa engine not faster than the reference engine on a "
               "large-D layered network: the awake-set skip has regressed");
}

// --------------------------------------------------------------------------
// Mega-scale SoA measurement.
// --------------------------------------------------------------------------

// The opposite regime from check_engine_speedup: a fat-FIRST layered
// network (all slack in layer 1) keeps essentially every node awake from
// step 2 on. Records the soa engine's single-thread throughput there, and
// drives the engine's namesake workload: a (smoke-scaled) million-node
// layered and sparse-G(n, p) completion run each, recorded as wall clock +
// exact step counts.
void check_mega_scale(bench::reporter& rep) {
  const node_id n = bench::smoke() ? (1 << 14) : (1 << 18);
  const int d = 64;
  const int reps = bench::smoke() ? 3 : 5;
  graph g = make_complete_layered_fat(n, d, /*fat_index=*/1);
  const auto proto = make_protocol("decay", n - 1);

  time_runs(g, *proto, 1, serial_run(step_engine::soa));  // warm-up
  const engine_timing soa =
      time_runs(g, *proto, reps, serial_run(step_engine::soa));
  RC_CHECK(soa.result.completed);

  const double steps_per_sec_soa =
      static_cast<double>(soa.steps) / (soa.min_ms / 1000.0);

  obs::json_value values = obs::json_value::object();
  values.set("n", n);
  values.set("d", d);
  values.set("reps", reps);
  values.set("steps", soa.steps);
  values.set("soa_min_ms", soa.min_ms);
  values.set("steps_per_sec_soa", steps_per_sec_soa);

  // Million-node completion runs. Smoke shrinks n so CI stays in
  // seconds.
  const node_id mega = bench::smoke() ? (1 << 17) : 1'000'000;
  values.set("mega_n", mega);
  double mega_wall = 0.0;
  const auto mega_run = [&](const std::string& tag, const graph& mg,
                            std::uint64_t seed) {
    run_options opts;
    opts.seed = seed;
    opts.max_steps = 10'000'000;
    const engine_timing t =
        time_runs(mg, *make_protocol("decay", mega - 1), 1, opts);
    RC_CHECK_MSG(t.result.completed,
                 "mega-scale " + tag + " broadcast did not complete");
    values.set("mega_" + tag + "_wall_ms", t.min_ms);
    values.set("mega_" + tag + "_steps", t.steps);
    mega_wall += t.min_ms;
    std::cout << "mega scale: " << tag << " n=" << mega << " completed in "
              << t.steps << " steps, " << t.min_ms << "ms (soa)\n";
  };
  mega_run("layered", make_complete_layered_fat(mega, d, /*fat_index=*/1),
           42);
  rng gen(9);
  mega_run("gnp", make_gnp_sparse_connected(mega, 6.0 / mega, gen), 43);

  rep.add_analytic_case(
      "mega_scale/decay/layered_fat_first/n=" + std::to_string(n) +
          "/d=" + std::to_string(d),
      bench::params("n", n, "protocol", "decay", "d", d),
      std::move(values), soa.min_ms + mega_wall);

  std::cout << "soa engine: " << soa.min_ms << "ms over " << soa.steps
            << " steps (" << steps_per_sec_soa << " steps/s)\n";
}

// --------------------------------------------------------------------------
// Deterministic-protocol SoA measurement.
// --------------------------------------------------------------------------

// The deterministic protocols (select-and-send, complete-layered) on an
// n = 2^18 thin-layer network: the soa engine's serial wall clock, and a
// step_threads = 4 sharded-step measurement (bit-identical to the serial
// run where it is measured) so the multi-core intra-step number lands in
// a committed baseline. The token protocols keep every informed node in
// the awake list until the traversal winds down, so timing a full run
// would cost Θ(n²) node-steps regardless of topology; each run stops
// after a fixed step WINDOW instead. Truncation is exact: serial and
// sharded runs do the same `window` steps of bit-identical work, so every
// record field still has to match.
void check_deterministic_scale(bench::reporter& rep) {
  const node_id n = bench::smoke() ? (1 << 13) : (1 << 18);
  const int d = bench::smoke() ? 32 : 1024;  // thin layers: width = n / d
  const std::int64_t window = bench::smoke() ? 8'000 : 40'000;
  const int reps = bench::smoke() ? 3 : 5;
  const int par_threads = 4;
  // Small shard grain for the threads run so intra-step sharding engages
  // even at smoke scale (awake counts there stay below the default grain);
  // the ordered merge keeps any grain bit-identical to the serial loop.
  const std::int64_t grain = 512;
  graph g = make_complete_layered_uniform(n, d);

  obs::json_value values = obs::json_value::object();
  values.set("n", n);
  values.set("d", d);
  values.set("window_steps", window);
  values.set("reps", reps);
  values.set("hardware_threads", exec::hardware_threads());
  double wall = 0.0;

  run_options serial;
  serial.seed = 42;
  serial.max_steps = window;
  serial.stop = stop_condition::all_halted;
  serial.step_threads = 1;
  run_options sharded = serial;
  sharded.step_threads = par_threads;
  sharded.step_shard_grain = grain;

  const char* kProtos[] = {"select-and-send", "complete-layered"};
  const char* kTags[] = {"sas", "cl"};
  for (int p = 0; p < 2; ++p) {
    const auto proto = make_protocol(kProtos[p], n - 1);
    time_runs(g, *proto, 1, serial);  // warm-up
    const engine_timing soa = time_runs(g, *proto, reps, serial);
    const engine_timing soa4 = time_runs(g, *proto, reps, sharded);
    require_identical(soa.result, soa4.result,
                      std::string("sharded soa run diverged from the serial "
                                  "one: ") +
                          kProtos[p]);

    const std::string tag = kTags[p];
    values.set(tag + "_steps", soa.steps);
    values.set(tag + "_soa_min_ms", soa.min_ms);
    values.set(tag + "_soa_threads4_min_ms", soa4.min_ms);
    wall += soa.min_ms + soa4.min_ms;

    std::cout << "deterministic scale: " << kProtos[p] << " soa="
              << soa.min_ms << "ms soa(t=4)=" << soa4.min_ms << "ms over "
              << soa.steps << " steps\n";
  }
  rep.add_analytic_case(
      "deterministic_scale/layered_uniform/n=" + std::to_string(n) +
          "/d=" + std::to_string(d),
      bench::params("n", n, "d", d, "window", window), std::move(values),
      wall);
}

}  // namespace
}  // namespace radiocast

int main(int argc, char** argv) {
  radiocast::bench::parse_threads_flag(argc, argv);
  std::vector<char*> args(argv, argv + argc);
  // Under smoke the google-benchmark pass shrinks to a token run; the
  // overhead guard below still executes in full.
  std::string min_time = "--benchmark_min_time=0.01";
  if (radiocast::bench::smoke()) args.push_back(min_time.data());
  int benchmark_argc = static_cast<int>(args.size());
  benchmark::Initialize(&benchmark_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  radiocast::bench::reporter rep("simulator_throughput");
  rep.config("kind", "microbenchmark");
  radiocast::check_metrics_overhead(rep);
  radiocast::check_parallel_speedup(rep);
  radiocast::check_engine_speedup(rep);
  radiocast::check_mega_scale(rep);
  radiocast::check_deterministic_scale(rep);
  return 0;
}
