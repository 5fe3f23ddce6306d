// Self-tests of the benchmark's own machinery. Exits non-zero on the first
// failed check; perfbench/run.py runs it before every measurement.
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/runner.h"
#include "exec/parallel_trials.h"
#include "fault/loss.h"
#include "fault/recovery.h"
#include "graph/generators.h"
#include "record.h"
#include "util/rng.h"

namespace rc = radiocast;
using perfbench::sim_record;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "selftest FAILED: " << what << "\n";
    ++failures;
  }
}

// The percentile rule: a tail percentile needs ten samples beyond it.
void test_percentile_rule() {
  expect(perfbench::samples_beyond(100, 0.9) == 10, "100 samples, p90");
  expect(perfbench::tail_percentile_ok(100, 0.9), "p90 of 100 is reportable");
  expect(!perfbench::tail_percentile_ok(99, 0.9), "p90 of 99 is not");
  expect(!perfbench::tail_percentile_ok(20, 0.9), "p90 of 20 is not");
  expect(perfbench::tail_percentile_ok(1000, 0.99), "p99 of 1000 is");
  expect(!perfbench::tail_percentile_ok(999, 0.99), "p99 of 999 is not");
  expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
  expect(perfbench::percentile({0.0, 10.0}, 0.9) == 9.0, "interpolation");
}

// The digest catches a change to any single field of any record, and the
// JSON form round-trips exactly.
void test_digest() {
  rc::trial_record t;
  t.completed = true;
  t.steps = 100;
  t.informed_step = 90;
  t.transmissions = 40;
  t.collisions = 7;
  t.deliveries = 63;
  sim_record base;
  base.add(t);
  base.add(t);
  std::int64_t rc::trial_record::*fields[] = {
      &rc::trial_record::steps,         &rc::trial_record::informed_step,
      &rc::trial_record::transmissions, &rc::trial_record::collisions,
      &rc::trial_record::deliveries,    &rc::trial_record::crashed_nodes,
      &rc::trial_record::recoveries,    &rc::trial_record::suppressed_deliveries};
  for (auto f : fields) {
    rc::trial_record u = t;
    u.*f += 1;
    sim_record changed;
    changed.add(t);
    changed.add(u);
    expect(changed.digest != base.digest, "digest misses a one-field change");
    expect(!(changed == base), "record equality misses a one-field change");
  }
  rc::trial_record u = t;
  u.completed = false;
  sim_record flipped;
  flipped.add(t);
  flipped.add(u);
  expect(flipped.digest != base.digest, "digest misses the completed flag");
  // Same sums, swapped order: only the digest can tell.
  rc::trial_record a = t, b = t;
  a.steps = 99;
  b.steps = 101;
  sim_record ab, ba;
  ab.add(a);
  ab.add(b);
  ba.add(b);
  ba.add(a);
  expect(ab.steps == ba.steps && ab.digest != ba.digest,
         "digest misses a reordering");
  sim_record back;
  expect(sim_record::from_json(base.to_json(), &back) && back == base,
         "record JSON round trip");
}

std::vector<sim_record> run_all(const rc::graph& g, const rc::protocol& p,
                                rc::fault::fault_model* faults,
                                int step_threads,
                                perfbench::work_counters* work) {
  std::vector<sim_record> out;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    rc::run_options o;
    o.engine = rc::step_engine::soa;
    o.step_threads = step_threads;
    o.step_shard_grain = 1;  // force sharding on a small graph
    o.seed = seed;
    o.faults = faults;
    const rc::run_result r = rc::run_broadcast(g, p, o);
    sim_record rec;
    rec.add(r);
    out.push_back(rec);
    if (work != nullptr) work->add(g, r);
  }
  return out;
}

// The computed work counters repeat bit for bit across runs and across
// step_threads 1 and 4.
void test_work_counters() {
  rc::rng gen(7);
  const rc::graph g = rc::make_gnp_sparse_connected(3000, 6.0 / 3000, gen);
  const auto decay = rc::make_protocol("decay", g.node_count() - 1);
  perfbench::work_counters w1, w1b, w4;
  const auto r1 = run_all(g, *decay, nullptr, 1, &w1);
  const auto r1b = run_all(g, *decay, nullptr, 1, &w1b);
  const auto r4 = run_all(g, *decay, nullptr, 4, &w4);
  expect(w1.awake_node_steps > 0 && w1.edge_slots_scanned > 0,
         "work counters are populated");
  expect(w1 == w1b, "work counters repeat across runs");
  expect(w1 == w4, "work counters match across step_threads 1 and 4");
  expect(r1 == r1b && r1 == r4, "records match across runs and threads");
}

// The timing decorator changes nothing: decorated and undecorated runs give
// identical records, serially and through parallel_run_trials' clones, and
// its timing sums across those clones.
void test_decorator_identity() {
  rc::rng gen(11);
  const rc::graph g = rc::make_random_geometric(1500, 0.06, gen);
  const auto decay = rc::make_protocol("decay", g.node_count() - 1);
  rc::fault::recovery_options ro;
  ro.crash_probability = 1e-4;
  ro.downtime = 4;
  rc::fault::recovery_model recovery(ro);
  rc::fault::loss_model loss(rc::fault::loss_options{0.1});
  rc::fault::composite_fault_model faults({&recovery, &loss});

  perfbench::fault_timing timing;
  perfbench::timed_fault_model timed(&faults, &timing);
  expect(timed.name() == faults.name(), "decorator forwards name()");
  const auto plain = run_all(g, *decay, &faults, 1, nullptr);
  const auto decorated = run_all(g, *decay, &timed, 1, nullptr);
  expect(plain == decorated, "decorated serial runs change the records");
  expect(timing.calls.load() > 0, "decorator counts hook calls");
  std::int64_t crashes = 0;
  for (const auto& r : plain) crashes += r.crashes;
  expect(crashes > 0, "the decorator test exercises crashes");

  rc::trial_options o;
  o.trials = 8;
  o.threads = 4;
  o.engine = rc::step_engine::soa;
  o.step_threads = 1;
  o.faults = &faults;
  const rc::trial_set a = rc::parallel_run_trials(g, *decay, o);
  perfbench::fault_timing par_timing;
  perfbench::timed_fault_model par_timed(&faults, &par_timing);
  o.faults = &par_timed;
  const rc::trial_set b = rc::parallel_run_trials(g, *decay, o);
  sim_record ra, rb;
  std::int64_t steps = 0;
  for (const auto& t : a.trials) ra.add(t);
  for (const auto& t : b.trials) {
    rb.add(t);
    steps += t.steps;
  }
  expect(ra == rb, "decorated parallel trials change the records");
  // Every step calls begin_step once; filter_deliveries adds more.
  expect(par_timing.calls.load() >= steps,
         "timing is summed across the clones of parallel_run_trials");
  expect(timed.clone() != nullptr, "decorator clones");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_digest();
  test_work_counters();
  test_decorator_identity();
  if (failures != 0) return 1;
  std::cout << "selftest ok\n";
  return 0;
}
