// The benchmark's workloads and the driver that measures them. See
// README.md for why each workload exists and what each metric means.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "record.h"

namespace perfbench {

/// The seed whose simulated records are committed under expected/.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Checks every simulated record the benchmark produces. A record is keyed
/// by what determines it (graph, protocol, run seed); at the default seed it
/// must equal the committed record, at any other seed it must equal every
/// earlier record under the same key (repeats, thread counts, metrics on or
/// off, campaign or direct execution all reuse keys).
class checker {
 public:
  /// `pinned`: compare against `expected` (the default seed).
  checker(std::map<std::string, sim_record> expected, bool pinned)
      : expected_(std::move(expected)), pinned_(pinned) {}

  /// Counts one attempted operation; `invariants_ok` false or a mismatch
  /// counts it as failed.
  void check(const std::string& key, const sim_record& rec,
             bool invariants_ok);
  /// Counts one attempted operation that failed outright (an error).
  void fail(const std::string& what);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }
  /// First record seen under each key, in key order.
  const std::map<std::string, sim_record>& seen() const { return seen_; }

 private:
  std::map<std::string, sim_record> expected_;
  bool pinned_;
  std::map<std::string, sim_record> seen_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> errors_;
};

/// How one repetition runs. Defaults reproduce the workload as defined.
struct variant {
  int step_threads = 0;  ///< 0 = the workload's own setting
  int metrics = -1;      ///< −1 = the workload's own setting, 0 off, 1 on
  radiocast::obs::span_profiler* profiler = nullptr;
  /// When set, the workload's fault model (a zero-rate loss model where it
  /// has none) is wrapped in a timed_fault_model that reports here.
  fault_timing* fault_timer = nullptr;
  /// sweep_campaign only: the same grid through parallel_run_trials
  /// instead of run_campaign + merge_campaign.
  bool bare = false;
};

/// What one repetition measured. A repetition runs one case of its
/// workload (a graph, a protocol, or a whole campaign); rates and trial
/// times are aggregated per case first, so cases of different speed never
/// share one median.
struct rep_result {
  std::string rate_case;          ///< the case its steps-per-second joins
  /// Process CPU time (all threads) inside the repetition's calls into the
  /// library; the benchmark's own checks and clean-up fall outside it.
  double cpu_s = 0.0;
  double wall_s = 0.0;            ///< host time of those same calls
  double merge_cpu_s = 0.0;       ///< sweep_campaign: merge_campaign's share
  std::int64_t steps = 0;         ///< simulated steps over its trials
  /// Host time per trial, by case.
  std::map<std::string, std::vector<double>> trial_ms;
  double trial_busy_s = 0.0;      ///< Σ host time inside trials
  int trial_threads = 1;          ///< trials running concurrently
  work_counters work;             ///< replays only (needs run_result)
  sim_record total;               ///< field-wise sum of its records
  double campaign_run_s = 0.0;    ///< sweep_campaign: run_campaign
  double campaign_merge_s = 0.0;  ///< sweep_campaign: merge_campaign
  std::int64_t bytes_written = 0; ///< sweep_campaign: artifact bytes
};

/// Wall time of the set-up's layers (the traced run's graph.gen_s and
/// core.make_protocol_s); setup_s is the CPU time of the whole set-up.
struct setup_times {
  double graph_gen_s = 0.0;
  double make_protocol_s = 0.0;
};

class workload {
 public:
  virtual ~workload() = default;

  /// Builds every input from `seed`: graphs, protocols, manifests, and the
  /// graph analysis they need.
  virtual setup_times setup(std::uint64_t seed) = 0;
  /// Distinct repetitions (cases × the fixed seed list) before they cycle.
  virtual int cycle() const = 0;
  /// Timed repetition `index` of the workload, 0 ≤ index < cycle().
  virtual rep_result run_rep(int index, const variant& v, checker& chk) = 0;
  /// A fixed subset of the workload run serially through run_broadcast, so
  /// the computed work counters are available and exact.
  virtual rep_result replay(const variant& v, checker& chk) = 0;
  /// The step_threads the workload runs with.
  virtual int step_threads() const = 0;
  /// Whether the workload runs with a metrics registry attached.
  virtual bool metrics_on() const { return false; }
  /// Undirected edges over the workload's graphs.
  virtual std::int64_t edges() const = 0;
};

std::unique_ptr<workload> make_workload(const std::string& name,
                                        const std::string& scratch_dir);

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct bench_config {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string expected_dir;  ///< holds <workload>.json
  std::string scratch_dir;   ///< campaign artifacts go below it
  /// Instead of measuring, run every key once and write the records.
  std::string write_expected;
};

struct bench_outcome {
  bool correct = false;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<metric> metrics;
  std::vector<std::string> notes;  ///< human-readable report lines
};

bench_outcome run_benchmark(const bench_config& cfg);

}  // namespace perfbench
