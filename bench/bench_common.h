// Shared helpers for the experiment harnesses in bench/.
//
// Each bench binary regenerates one experiment from DESIGN.md's index: it
// sweeps the workload, measures completion steps through the simulator,
// and prints a text table whose rows mirror the claim being reproduced.
// EXPERIMENTS.md records the paper-vs-measured comparison.
//
// Telemetry: every bench also emits a machine-readable artifact,
// `BENCH_<name>.json`, through `bench::reporter` — run configuration,
// per-trial metrics (steps/transmissions/collisions/wall-clock), step
// percentiles, timeout rates, and the wall-clock span tree of the run.
// `tools/radiocast_inspect` pretty-prints, validates, and diffs these
// files; docs/OBSERVABILITY.md documents the schema
// ("radiocast.bench.v1").
//
// Smoke mode: with RADIOCAST_SMOKE=1 in the environment, `sweep()` and
// `trial_count()` shrink every sweep to its first point and ≤ 2 trials so
// CI can validate the telemetry pipeline in seconds (scripts/reproduce.sh
// smoke).
// Parallelism: trial batches go through parallel_run_trials, so every
// bench shards its seeded trials across workers when asked to — via the
// `--threads N` flag (see parse_threads_flag) or the RADIOCAST_THREADS
// environment default. The default is 1 (serial); results are
// bit-identical either way (docs/PARALLELISM.md). Each case's telemetry
// records `threads`, the batch wall-clock (`batch_wall_ms`), and the
// trial-throughput `speedup` (summed per-trial wall over batch wall).
#pragma once

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/artifact.h"
#include "core/runner.h"
#include "exec/parallel_trials.h"
#include "exec/thread_pool.h"
#include "graph/analysis.h"
#include "graph/generators.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/simulator.h"
#include "util/fit.h"
#include "util/stats.h"
#include "util/table.h"

namespace radiocast::bench {

/// True when RADIOCAST_SMOKE is set (to anything but "0"): benches shrink
/// sweeps/trials to a telemetry-validating minimum.
inline bool smoke() {
  static const bool value = [] {
    const char* env = std::getenv("RADIOCAST_SMOKE");
    return env != nullptr && std::string(env) != "0";
  }();
  return value;
}

/// The sweep to run: the full list normally, only its first point under
/// smoke mode.
template <typename T>
std::vector<T> sweep(std::initializer_list<T> full) {
  std::vector<T> values(full);
  if (smoke() && values.size() > 1) {
    values.erase(values.begin() + 1, values.end());
  }
  return values;
}

/// Trial count: `full` normally, at most 2 under smoke mode.
inline int trial_count(int full) { return smoke() ? std::min(full, 2) : full; }

/// The process-wide requested thread count for trial batches: 0 (the
/// default) defers to the RADIOCAST_THREADS environment variable, anything
/// positive was set explicitly (the --threads flag).
inline int& requested_threads() {
  static int value = 0;
  return value;
}

/// Worker count every trial batch will actually use.
inline int threads() { return exec::resolve_threads(requested_threads()); }

/// Applies `--threads N` / `--threads=N` from a bench's command line (all
/// other arguments are ignored, so google-benchmark flags pass through
/// untouched). Call at the top of main, before constructing the reporter.
inline void parse_threads_flag(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--threads=", 0) == 0) {
      requested_threads() = std::max(1, std::atoi(arg.c_str() + 10));
    } else if (arg == "--threads" && i + 1 < argc) {
      requested_threads() = std::max(1, std::atoi(argv[i + 1]));
      ++i;
    }
  }
}

/// Mean completion steps of a batch over its completed trials; NaN when
/// every trial hit the cap (prints as "nan" in tables — the timeout_rate
/// column/artifact carries the real story).
inline double mean_steps(const trial_set& batch) {
  const std::vector<double> steps = batch.completion_steps();
  if (steps.empty()) return std::nan("");
  return summarize(steps).mean;
}

/// Collects every measured case of one bench run and writes
/// `BENCH_<name>.json` on destruction (schema "radiocast.bench.v1").
/// Also installs a span profiler as the process-wide default for its
/// lifetime, so `run_broadcast`/`run_trials` spans land in the artifact.
class reporter {
 public:
  explicit reporter(std::string name) : name_(std::move(name)) {
    previous_profiler_ = obs::global_profiler();
    obs::set_global_profiler(&profiler_);
    root_ = obs::json_value::object();
    root_.set("schema", "radiocast.bench.v1");
    root_.set("bench", name_);
    config_ = obs::json_value::object();
    config_.set("smoke", smoke());
    config_.set("threads", static_cast<std::int64_t>(threads()));
    cases_ = obs::json_value::array();
  }

  ~reporter() {
    obs::set_global_profiler(previous_profiler_);
    write();
  }

  reporter(const reporter&) = delete;
  reporter& operator=(const reporter&) = delete;

  /// Adds one run-configuration entry ("trials", "families", …).
  void config(const std::string& key, obs::json_value v) {
    config_.set(key, std::move(v));
  }

  /// Records one measured case: a (topology, protocol, parameters) cell of
  /// the sweep with its trial batch. Returns the mean completion steps
  /// over completed trials (NaN when every trial timed out) so call sites
  /// can keep building their text tables from the same measurement.
  double add_case(const std::string& case_name, obs::json_value params,
                  const trial_set& batch) {
    cases_.push_back(
        campaign::trial_case_json(case_name, std::move(params), batch));
    return mean_steps(batch);
  }

  /// Records a case with no simulator trials — analytic benches
  /// (selective-family sizes, universal-sequence quality) report derived
  /// values plus the wall-clock they took to compute.
  void add_analytic_case(const std::string& case_name,
                         obs::json_value params, obs::json_value values,
                         double wall_ms = 0.0) {
    obs::json_value c = obs::json_value::object();
    c.set("name", case_name);
    c.set("params", std::move(params));
    c.set("trials", obs::json_value::array());
    c.set("timeout_rate", 0.0);
    c.set("wall_ms", wall_ms);
    c.set("steps", obs::json_value::object());
    c.set("values", std::move(values));
    cases_.push_back(std::move(c));
  }

  /// Attaches extra JSON (fit coefficients, derived ratios, …) to the most
  /// recently added case.
  void annotate(const std::string& key, obs::json_value v) {
    if (cases_.items().empty()) return;
    cases_.items().back().set(key, std::move(v));
  }

  /// Attaches a metrics-registry export to the most recent case (used by
  /// benches that run with per-step series enabled).
  void attach_metrics(const obs::metrics_registry& metrics) {
    annotate("metrics", metrics.to_json());
  }

  obs::span_profiler& profiler() { return profiler_; }
  const std::string& artifact_path() const { return path_; }

  /// Writes the artifact (idempotent; the destructor calls it too).
  void write() {
    if (written_) return;
    written_ = true;
    root_.set("config", config_);
    root_.set("cases", cases_);
    root_.set("spans", profiler_.to_json());
    path_ = "BENCH_" + name_ + ".json";
    std::ofstream out(path_);
    root_.write(out, 2);
    out << '\n';
    std::cout << "\n[telemetry] wrote " << path_ << " ("
              << cases_.items().size() << " cases)\n";
  }

 private:
  std::string name_;
  std::string path_;
  bool written_ = false;
  obs::json_value root_, config_, cases_;
  obs::span_profiler profiler_;
  obs::span_profiler* previous_profiler_ = nullptr;
};

/// Runs a seeded trial batch, records it as a case, and returns the batch.
/// Timeouts become data (timeout_rate in the artifact), never exceptions.
/// An optional fault model is re-seeded per trial by run_trials, so each
/// trial draws an independent fault schedule from its own seed.
inline trial_set run_case(reporter& rep, const std::string& case_name,
                          obs::json_value params, const graph& g,
                          const protocol& proto, int trials,
                          std::uint64_t seed = 1,
                          std::int64_t cap = 50'000'000,
                          stop_condition stop = stop_condition::all_informed,
                          fault::fault_model* faults = nullptr) {
  trial_options topts;
  topts.trials = trials;
  topts.base_seed = seed;
  topts.max_steps = cap;
  topts.stop = stop;
  topts.faults = faults;
  topts.threads = threads();
  const auto start = std::chrono::steady_clock::now();
  trial_set batch = parallel_run_trials(g, proto, topts);
  const double batch_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          std::chrono::steady_clock::now() - start)
          .count();
  rep.add_case(case_name, std::move(params), batch);
  rep.annotate("threads", static_cast<std::int64_t>(topts.threads));
  rep.annotate("batch_wall_ms", batch_ms);
  // Trial throughput gain over one core: total per-trial work over the
  // batch's wall clock (≈1.0 serially, up to `threads` when sharding
  // scales; also <1.0 when per-trial overhead dominates tiny batches).
  rep.annotate("speedup",
               batch_ms > 0.0 ? batch.total_wall_ms() / batch_ms : 1.0);
  return batch;
}

/// Mean completion time of `proto` on `g` over seeded trials, without
/// artifact recording (used by helper sweeps; prefers run_case +
/// mean_steps when a reporter is in scope). Tolerates timeouts.
inline double mean_time(const graph& g, const protocol& proto, int trials,
                        std::uint64_t seed = 1,
                        std::int64_t cap = 50'000'000) {
  trial_options topts;
  topts.trials = trials;
  topts.base_seed = seed;
  topts.max_steps = cap;
  topts.threads = threads();
  return mean_steps(parallel_run_trials(g, proto, topts));
}

/// Convenience for params objects: key/value pairs of heterogeneous
/// JSON-compatible values.
inline obs::json_value params() { return obs::json_value::object(); }
template <typename V, typename... Rest>
obs::json_value params(const std::string& key, V value, Rest... rest) {
  obs::json_value obj = params(rest...);
  obs::json_value ordered = obs::json_value::object();
  ordered.set(key, obs::json_value(value));
  for (const auto& [k, v] : obj.members()) ordered.set(k, v);
  return ordered;
}

/// log₂ with a floor at 1 to keep ratios finite for tiny arguments.
inline double lg(double x) { return std::max(1.0, std::log2(x)); }

/// The paper's randomized bounds.
inline double kp_bound(double n, double d) {
  return d * lg(n / d) + lg(n) * lg(n);
}
inline double bgi_bound(double n, double d) { return d * lg(n) + lg(n) * lg(n); }

/// Prints a one-line fit verdict under a table.
inline void print_fit(const std::string& label, const fit_result& f) {
  std::cout << "  fit " << label << ": coefficient="
            << text_table::format_double(f.coefficients[0], 3)
            << "  R²=" << text_table::format_double(f.r_squared, 4) << "\n";
}

/// JSON form of a fit, for annotate().
inline obs::json_value fit_json(const fit_result& f) {
  obs::json_value v = obs::json_value::object();
  v.set("coefficient", f.coefficients[0]);
  v.set("r_squared", f.r_squared);
  return v;
}

}  // namespace radiocast::bench
