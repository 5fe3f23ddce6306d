// Building blocks of the benchmark that carry no workload knowledge: the
// simulated record it checks, its digest, the exact work counters it
// computes from run_result, order statistics, and the timing decorator for
// fault models. Everything here is exercised by selftest.cpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_model.h"
#include "graph/graph.h"
#include "obs/json.h"
#include "obs/span.h"
#include "sim/simulator.h"

namespace perfbench {

/// The simulated outcome of one trial, or the field-wise sum of several
/// trials (count > 1) with a digest over their records in order. Simulated
/// quantities are fixed by the seed, so two records compare exactly.
struct sim_record {
  std::int64_t count = 0;
  std::int64_t steps = 0;
  std::int64_t informed_step = 0;
  std::int64_t transmissions = 0;
  std::int64_t collisions = 0;
  std::int64_t deliveries = 0;
  std::int64_t crashes = 0;
  std::int64_t recoveries = 0;
  std::int64_t suppressed = 0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a offset basis

  /// Folds one trial in: sums every field and extends the digest.
  void add(const radiocast::trial_record& t);
  void add(const radiocast::run_result& r);
  /// Folds another record in: sums its fields and mixes in its digest.
  void add(const sim_record& other);

  bool operator==(const sim_record&) const = default;

  radiocast::obs::json_value to_json() const;
  static bool from_json(const radiocast::obs::json_value& v, sim_record* out);
};

/// The per-trial invariants every benchmark record must satisfy, whatever
/// the seed: the run completed within its cap, and its counts are coherent.
/// `fault_free_n` > 0 additionally demands at least n − 1 deliveries (every
/// node but the source heard the message at least once).
bool trial_ok(const radiocast::trial_record& t, radiocast::node_id fault_free_n);
radiocast::trial_record to_trial(const radiocast::run_result& r);

/// Exact work counters computed outside the library from a run_result.
/// awake_node_steps = Σ_v (steps − informed_at[v]) over informed nodes: the
/// node-steps the frontier engines spend in phase 1. edge_slots_scanned =
/// Σ_v transmissions_per_node[v] · deg(v): the adjacency slots phase 2
/// reads.
struct work_counters {
  std::int64_t awake_node_steps = 0;
  std::int64_t edge_slots_scanned = 0;

  void add(const radiocast::graph& g, const radiocast::run_result& r);
  void add(const work_counters& other) {
    awake_node_steps += other.awake_node_steps;
    edge_slots_scanned += other.edge_slots_scanned;
  }
  bool operator==(const work_counters&) const = default;
};

/// Median of a nonempty sample.
double median(std::vector<double> v);
/// Linear-interpolation percentile, q in [0, 1], of a nonempty sample.
double percentile(std::vector<double> v, double q);
/// Samples of n that lie strictly beyond the q-th percentile's rank.
std::size_t samples_beyond(std::size_t n, double q);
/// A tail percentile is reported only when at least ten samples lie beyond
/// it; otherwise it would be one of the few largest samples, i.e. noise.
bool tail_percentile_ok(std::size_t n, double q);

/// Sum of total_ns over every span named `name`, anywhere in the tree.
std::int64_t span_total_ns(const radiocast::obs::span_profiler& p,
                           const std::string& name);

/// Host time spent in a fault model's hooks, summed across every clone of
/// one timed_fault_model (parallel_run_trials hands each worker a clone).
struct fault_timing {
  std::atomic<std::int64_t> begin_step_ns{0};
  std::atomic<std::int64_t> filter_ns{0};
  std::atomic<std::int64_t> calls{0};
};

/// Decorator that forwards every fault_model virtual to an inner model and
/// times begin_step and filter_deliveries into a shared fault_timing.
/// Clones wrap a clone of the inner model and share the same timing.
class timed_fault_model final : public radiocast::fault::fault_model {
 public:
  /// Borrows `inner`; `timing` must outlive this model and its clones.
  timed_fault_model(radiocast::fault::fault_model* inner, fault_timing* timing)
      : inner_(inner), timing_(timing) {}
  timed_fault_model(std::unique_ptr<radiocast::fault::fault_model> owned,
                    fault_timing* timing)
      : inner_(owned.get()), owned_(std::move(owned)), timing_(timing) {}

  std::string name() const override { return inner_->name(); }
  void begin_run(const radiocast::fault::run_view& view) override {
    inner_->begin_run(view);
  }
  void begin_step(const radiocast::fault::step_view& view,
                  radiocast::fault::step_faults* out) override;
  void filter_deliveries(
      const radiocast::fault::step_view& view,
      std::vector<radiocast::fault::delivery_candidate>* candidates) override;
  std::int64_t pending_recoveries() const override {
    return inner_->pending_recoveries();
  }
  std::unique_ptr<radiocast::fault::fault_model> clone() const override;

 private:
  radiocast::fault::fault_model* inner_;
  std::unique_ptr<radiocast::fault::fault_model> owned_;
  fault_timing* timing_;
};

}  // namespace perfbench
