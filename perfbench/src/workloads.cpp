#include "workloads.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "campaign/campaign.h"
#include "campaign/manifest.h"
#include "core/runner.h"
#include "exec/parallel_trials.h"
#include "fault/loss.h"
#include "fault/recovery.h"
#include "graph/analysis.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace perfbench {

namespace rc = radiocast;
using steady = std::chrono::steady_clock;

namespace {

double since(steady::time_point t0) {
  return std::chrono::duration<double>(steady::now() - t0).count();
}

/// CPU time consumed by every thread of this process, in seconds. Unlike
/// wall time it excludes time the hypervisor stole from the virtual CPUs.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// The fault model one repetition runs with: the workload's own (possibly
/// none), wrapped in a timing decorator when the variant asks for one.
struct fault_slot {
  std::unique_ptr<rc::fault::fault_model> noop;
  std::unique_ptr<rc::fault::fault_model> timed;
  rc::fault::fault_model* model = nullptr;

  fault_slot(rc::fault::fault_model* own, const variant& v) : model(own) {
    if (v.fault_timer == nullptr) return;
    if (model == nullptr) {
      noop = std::make_unique<rc::fault::loss_model>(
          rc::fault::loss_options{0.0});
      model = noop.get();
    }
    timed = std::make_unique<timed_fault_model>(model, v.fault_timer);
    model = timed.get();
  }
};

bool metrics_wanted(const variant& v, bool workload_default) {
  return v.metrics < 0 ? workload_default : v.metrics == 1;
}

/// One run_broadcast with the variant applied, checked under `key`.
void run_checked(const rc::graph& g, const rc::protocol& proto,
                 rc::run_options o, rc::fault::fault_model* own_faults,
                 bool metrics_default, const std::string& key,
                 const variant& v, checker& chk, rep_result* out) {
  rc::obs::metrics_registry reg;
  if (metrics_wanted(v, metrics_default)) o.metrics = &reg;
  o.profiler = v.profiler;
  fault_slot faults(own_faults, v);
  o.faults = faults.model;
  const auto t0 = steady::now();
  const double cpu0 = process_cpu_s();
  const rc::run_result r = rc::run_broadcast(g, proto, o);
  out->cpu_s += process_cpu_s() - cpu0;
  const double dt = since(t0);
  out->wall_s += dt;
  sim_record rec;
  rec.add(r);
  const rc::node_id fault_free_n =
      own_faults == nullptr && o.stop == rc::stop_condition::all_informed
          ? g.node_count()
          : 0;
  chk.check(key, rec, trial_ok(to_trial(r), fault_free_n));
  out->steps += r.steps;
  out->trial_busy_s += dt;
  out->total.add(r);
  out->work.add(g, r);
}

/// Checks a contiguous slice of trial records as one keyed record.
void check_slice(const std::vector<rc::trial_record>& trials,
                 std::size_t first, std::size_t count,
                 rc::node_id fault_free_n, const std::string& key,
                 const std::string& trial_case, checker& chk,
                 rep_result* out) {
  sim_record rec;
  bool ok = first + count <= trials.size();
  for (std::size_t t = first; ok && t < first + count; ++t) {
    const rc::trial_record& tr = trials[t];
    ok = ok && trial_ok(tr, fault_free_n);
    rec.add(tr);
    out->total.add(tr);
    out->steps += tr.steps;
    out->trial_ms[trial_case].push_back(tr.wall_ms);
    out->trial_busy_s += tr.wall_ms / 1e3;
  }
  chk.check(key, rec, ok);
}

/// Runs repetitions 0..count−1 and sums them into one result.
rep_result replay_reps(workload& w, int count, const variant& v,
                       checker& chk) {
  rep_result out;
  for (int i = 0; i < count; ++i) {
    const rep_result r = w.run_rep(i, v, chk);
    out.wall_s += r.wall_s;
    out.steps += r.steps;
    out.trial_busy_s += r.trial_busy_s;
    out.work.add(r.work);
    out.total.add(r.total);
  }
  return out;
}

// ---------------------------------------------------------------------------
// mega_decay: Decay on two 2^17-node graphs, soa engine, 4 step threads.
// The sparse G(n,p) stresses random-access CSR and phase-1 RNG draws; the
// fat complete-layered graph is dense-awake and regular, where intra-step
// sharding pays most. One repetition = one seed on one graph.
// ---------------------------------------------------------------------------
class mega_decay final : public workload {
 public:
  static constexpr rc::node_id kN = 1 << 17;
  static constexpr int kKeys = 8;

  setup_times setup(std::uint64_t seed) override {
    seed_ = seed;
    setup_times t;
    auto t0 = steady::now();
    rc::rng gen(rc::fault::mix_seed(seed, 0x6d656761));
    gnp_.emplace(rc::make_gnp_sparse_connected(kN, 6.0 / kN, gen));
    layered_.emplace(rc::make_complete_layered_fat(kN, 64, 1));
    t.graph_gen_s = since(t0);
    t0 = steady::now();
    decay_ = rc::make_protocol("decay", kN - 1);
    t.make_protocol_s = since(t0);
    return t;
  }
  int cycle() const override { return 2 * kKeys; }
  int step_threads() const override { return 4; }
  std::int64_t edges() const override {
    return static_cast<std::int64_t>(gnp_->edge_count() +
                                     layered_->edge_count());
  }

  rep_result run_rep(int index, const variant& v, checker& chk) override {
    const int key = index / 2;
    rep_result out;
    out.rate_case = index % 2 == 0 ? "gnp" : "layered";
    rc::run_options o;
    o.engine = rc::step_engine::soa;
    o.step_threads = v.step_threads > 0 ? v.step_threads : step_threads();
    o.seed = rc::fault::mix_seed(seed_, static_cast<std::uint64_t>(key));
    run_checked(index % 2 == 0 ? *gnp_ : *layered_, *decay_, o, nullptr,
                false, out.rate_case + "/" + std::to_string(key), v, chk,
                &out);
    out.trial_ms[out.rate_case].push_back(out.wall_s * 1e3);
    return out;
  }
  rep_result replay(const variant& v, checker& chk) override {
    return replay_reps(*this, 2, v, chk);
  }

 private:
  std::uint64_t seed_ = kDefaultSeed;
  std::optional<rc::graph> gnp_, layered_;
  std::unique_ptr<rc::protocol> decay_;
};

// ---------------------------------------------------------------------------
// token_det: the deterministic token protocols on small graphs with very
// long runs, soa engine, 4 step threads. About one node transmits per step,
// so the per-step fixed cost dominates. One repetition = one case.
// ---------------------------------------------------------------------------
class token_det final : public workload {
 public:
  setup_times setup(std::uint64_t seed) override {
    setup_times t;
    cases_.clear();
    auto t0 = steady::now();
    rc::rng gen(rc::fault::mix_seed(seed, 0x746f6b));
    cases_.push_back({"sas/layered", rc::make_complete_layered_uniform(1024, 16),
                      "select-and-send", rc::stop_condition::all_halted, nullptr});
    cases_.push_back({"sas/tree", rc::make_random_tree(2048, gen),
                      "select-and-send", rc::stop_condition::all_halted, nullptr});
    cases_.push_back({"sas/gnp",
                      rc::make_gnp_sparse_connected(1024, 4.0 / 1024, gen),
                      "select-and-send", rc::stop_condition::all_halted, nullptr});
    cases_.push_back({"cl/layered",
                      rc::make_complete_layered_uniform(1 << 14, 16),
                      "complete-layered", rc::stop_condition::all_informed, nullptr});
    t.graph_gen_s = since(t0);
    t0 = steady::now();
    for (auto& c : cases_) {
      c.proto = rc::make_protocol(c.protocol, c.g.node_count() - 1);
    }
    t.make_protocol_s = since(t0);
    return t;
  }
  int cycle() const override { return static_cast<int>(cases_.size()); }
  int step_threads() const override { return 4; }
  std::int64_t edges() const override {
    std::int64_t e = 0;
    for (const auto& c : cases_) e += static_cast<std::int64_t>(c.g.edge_count());
    return e;
  }

  rep_result run_rep(int index, const variant& v, checker& chk) override {
    const token_case& c = cases_[static_cast<std::size_t>(index)];
    rep_result out;
    out.rate_case = c.name;
    rc::run_options o;
    o.engine = rc::step_engine::soa;
    o.step_threads = v.step_threads > 0 ? v.step_threads : step_threads();
    o.stop = c.stop;
    o.max_steps = 10'000'000;
    run_checked(c.g, *c.proto, o, nullptr, false, c.name, v, chk, &out);
    out.trial_ms[c.name].push_back(out.wall_s * 1e3);
    return out;
  }
  rep_result replay(const variant& v, checker& chk) override {
    return replay_reps(*this, cycle(), v, chk);
  }

 private:
  struct token_case {
    std::string name;
    rc::graph g;
    std::string protocol;
    rc::stop_condition stop;
    std::unique_ptr<rc::protocol> proto;
  };
  std::vector<token_case> cases_;
};

// ---------------------------------------------------------------------------
// faults_observed: Decay and KP on a random geometric sensor field under
// crash-recovery (retain) composed with message loss, a metrics registry
// attached, trials spread over 4 threads by parallel_run_trials. The only
// workload where the fault and obs layers do real work.
// ---------------------------------------------------------------------------
class faults_observed final : public workload {
 public:
  static constexpr rc::node_id kN = 1 << 13;
  static constexpr int kTrials = 4;  // per protocol per repetition
  static constexpr int kKeys = 8;

  faults_observed()
      : recovery_(make_recovery()),
        loss_(rc::fault::loss_options{0.1}),
        faults_({&recovery_, &loss_}) {}

  setup_times setup(std::uint64_t seed) override {
    seed_ = seed;
    setup_times t;
    auto t0 = steady::now();
    rc::rng gen(rc::fault::mix_seed(seed, 0x726767));
    // Mean degree about 20: n·π·r² = 20.
    g_.emplace(rc::make_random_geometric(kN, 0.0279, gen));
    t.graph_gen_s = since(t0);
    const int d = rc::radius_from(*g_);
    t0 = steady::now();
    protos_.clear();
    protos_.emplace_back("decay", rc::make_protocol("decay", kN - 1));
    protos_.emplace_back("kp", rc::make_protocol("kp", kN - 1, d));
    t.make_protocol_s = since(t0);
    return t;
  }
  int cycle() const override { return 2 * kKeys; }
  int step_threads() const override { return 1; }
  bool metrics_on() const override { return true; }
  std::int64_t edges() const override {
    return static_cast<std::int64_t>(g_->edge_count());
  }

  rep_result run_rep(int index, const variant& v, checker& chk) override {
    const int key = index / 2;
    const auto& [name, proto] = protos_[static_cast<std::size_t>(index % 2)];
    rep_result out;
    out.rate_case = name;
    out.trial_threads = 4;
    rc::obs::metrics_registry reg;
    fault_slot faults(&faults_, v);
    rc::trial_options o;
    o.trials = kTrials;
    o.base_seed = base_seed() + static_cast<std::uint64_t>(key * kTrials);
    o.threads = 4;
    o.engine = rc::step_engine::soa;
    o.step_threads = v.step_threads > 0 ? v.step_threads : step_threads();
    o.metrics = metrics_wanted(v, metrics_on()) ? &reg : nullptr;
    o.profiler = v.profiler;
    o.faults = faults.model;
    const auto t0 = steady::now();
    const double cpu0 = process_cpu_s();
    const rc::trial_set ts = rc::parallel_run_trials(*g_, *proto, o);
    out.cpu_s = process_cpu_s() - cpu0;
    out.wall_s = since(t0);
    for (std::size_t t = 0; t < ts.trials.size(); ++t) {
      check_slice(ts.trials, t, 1, 0,
                  name + "/" + std::to_string(key * kTrials +
                                              static_cast<int>(t)),
                  name, chk, &out);
    }
    return out;
  }
  rep_result replay(const variant& v, checker& chk) override {
    rep_result out;
    for (const auto& [name, proto] : protos_) {
      rc::run_options o;
      o.engine = rc::step_engine::soa;
      o.step_threads = v.step_threads > 0 ? v.step_threads : step_threads();
      o.seed = base_seed();
      run_checked(*g_, *proto, o, &faults_, metrics_on(), name + "/0", v, chk,
                  &out);
    }
    return out;
  }

 private:
  static rc::fault::recovery_options make_recovery() {
    rc::fault::recovery_options r;
    r.crash_probability = 2e-6;
    r.mode = rc::fault::recovery_mode::retain;
    r.downtime = 4;
    return r;
  }
  std::uint64_t base_seed() const { return rc::fault::mix_seed(seed_, 0x66); }

  std::uint64_t seed_ = kDefaultSeed;
  std::optional<rc::graph> g_;
  std::vector<std::pair<std::string, std::unique_ptr<rc::protocol>>> protos_;
  rc::fault::recovery_model recovery_;
  rc::fault::loss_model loss_;
  rc::fault::composite_fault_model faults_;
};

// ---------------------------------------------------------------------------
// sweep_campaign: run_campaign + merge_campaign over tens of thousands of
// tiny trials (frontier engine, 4 trial threads). Per-trial setup, thread
// dispatch and the NDJSON/checkpoint writes dominate; the step loop is
// short. One repetition = one fresh campaign and its merge.
// ---------------------------------------------------------------------------
class sweep_campaign final : public workload {
 public:
  static constexpr int kTrialsPerPoint = 2000;
  static constexpr int kShardSize = 250;

  explicit sweep_campaign(std::string scratch) : scratch_(std::move(scratch)) {}

  setup_times setup(std::uint64_t seed) override {
    setup_times t;
    rc::campaign::manifest m;
    m.name = "perfbench-sweep";
    m.base_seed = rc::fault::mix_seed(seed, 0x7377);
    m.trials_per_point = kTrialsPerPoint;
    m.shard_size = kShardSize;
    m.threads = 4;
    m.max_steps = 1'000'000;
    graphs_.clear();
    protos_.clear();
    for (const rc::node_id n : {128, 256}) {
      for (const char* family : {"gnp", "complete-layered"}) {
        rc::campaign::grid_point pt;
        pt.family = family;
        pt.n = n;
        pt.d = 8;
        pt.p = 8.0 / n;
        pt.graph_seed = rc::fault::mix_seed(seed, static_cast<std::uint64_t>(n));
        auto t0 = steady::now();
        rc::graph g = rc::campaign::build_graph(pt);
        t.graph_gen_s += since(t0);
        const int d = rc::radius_from(g);
        for (const char* proto : {"decay", "kp"}) {
          pt.protocol = proto;
          pt.known_d = pt.protocol == "kp" ? d : -1;
          m.grid.push_back(pt);
          t0 = steady::now();
          protos_.push_back(rc::campaign::build_protocol(pt));
          t.make_protocol_s += since(t0);
          graphs_.push_back(g);
        }
      }
    }
    // The manifest must survive its own schema check, exactly as a
    // campaign loaded from disk would.
    std::string error;
    std::optional<rc::campaign::manifest> parsed =
        rc::campaign::parse_manifest(m.to_json(), &error);
    if (!parsed) throw std::runtime_error("sweep manifest rejected: " + error);
    manifest_ = std::move(*parsed);
    plan_ = rc::campaign::plan_shards(manifest_);
    return t;
  }
  int cycle() const override { return 1; }
  int step_threads() const override { return 1; }
  std::int64_t edges() const override {
    std::int64_t e = 0;
    for (const auto& g : graphs_) e += static_cast<std::int64_t>(g.edge_count());
    return e;
  }

  rep_result run_rep(int, const variant& v, checker& chk) override {
    return v.bare ? run_bare(v, chk) : run_campaign(v, chk);
  }

  /// The first shard of every grid point, trial by trial via run_broadcast.
  rep_result replay(const variant& v, checker& chk) override {
    rep_result out;
    for (const auto& s : plan_) {
      if (s.first_trial != 0) continue;
      const auto p = static_cast<std::size_t>(s.point);
      sim_record rec;
      bool ok = true;
      for (int t = 0; t < s.count; ++t) {
        rc::run_options o;
        o.seed = s.base_seed + static_cast<std::uint64_t>(t);
        o.max_steps = manifest_.max_steps;
        o.step_threads = v.step_threads > 0 ? v.step_threads : step_threads();
        rc::obs::metrics_registry reg;
        if (metrics_wanted(v, false)) o.metrics = &reg;
        o.profiler = v.profiler;
        fault_slot faults(nullptr, v);
        o.faults = faults.model;
        const auto t1 = steady::now();
        const rc::run_result r = rc::run_broadcast(graphs_[p], *protos_[p], o);
        out.wall_s += since(t1);
        ok = ok && trial_ok(to_trial(r), graphs_[p].node_count());
        rec.add(r);
        out.total.add(r);
        out.steps += r.steps;
        out.work.add(graphs_[p], r);
      }
      chk.check("shard/" + std::to_string(s.shard), rec, ok);
    }
    out.trial_busy_s = out.wall_s;
    return out;
  }

 private:
  void check_point(std::size_t point, const std::vector<rc::trial_record>& ts,
                   checker& chk, rep_result* out) const {
    for (const auto& s : plan_) {
      if (static_cast<std::size_t>(s.point) != point) continue;
      check_slice(ts, static_cast<std::size_t>(s.first_trial),
                  static_cast<std::size_t>(s.count),
                  graphs_[point].node_count(),
                  "shard/" + std::to_string(s.shard),
                  manifest_.grid[point].case_name(), chk, out);
    }
  }

  rep_result run_campaign(const variant& v, checker& chk) {
    namespace fs = std::filesystem;
    rep_result out;
    out.rate_case = "campaign";
    out.trial_threads = manifest_.threads;
    const std::string dir = scratch_ + "/sweep_campaign";
    fs::remove_all(dir);
    // run_campaign reaches parallel_run_trials without a profiler argument,
    // so a traced repetition lends it the process-wide one.
    rc::obs::set_global_profiler(v.profiler);
    rc::campaign::campaign_options copts;
    copts.out_dir = dir;
    copts.fresh = true;
    auto t0 = steady::now();
    double cpu0 = process_cpu_s();
    const rc::campaign::campaign_result cr =
        rc::campaign::run_campaign(manifest_, copts);
    out.cpu_s = process_cpu_s() - cpu0;
    out.campaign_run_s = since(t0);
    rc::obs::set_global_profiler(nullptr);
    t0 = steady::now();
    cpu0 = process_cpu_s();
    std::string error;
    const std::optional<rc::obs::json_value> doc =
        cr.ok && cr.finished
            ? rc::campaign::merge_campaign(manifest_, dir, &error)
            : std::nullopt;
    out.merge_cpu_s = process_cpu_s() - cpu0;
    out.cpu_s += out.merge_cpu_s;
    out.campaign_merge_s = since(t0);
    out.wall_s = out.campaign_run_s + out.campaign_merge_s;
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
      if (e.is_regular_file()) {
        out.bytes_written += static_cast<std::int64_t>(e.file_size());
      }
    }
    fs::remove_all(dir);
    if (!doc) {
      chk.fail("campaign: " + (cr.ok ? error : cr.error));
      return out;
    }
    const rc::obs::json_value* cases = doc->find("cases");
    if (cases == nullptr || cases->size() != manifest_.grid.size()) {
      chk.fail("campaign: merged document has the wrong cases");
      return out;
    }
    for (std::size_t p = 0; p < manifest_.grid.size(); ++p) {
      std::vector<rc::trial_record> ts;
      const rc::obs::json_value* trials = cases->items()[p].find("trials");
      if (trials != nullptr) {
        for (const auto& j : trials->items()) ts.push_back(from_json(j));
      }
      check_point(p, ts, chk, &out);
    }
    return out;
  }

  rep_result run_bare(const variant& v, checker& chk) {
    rep_result out;
    out.rate_case = "bare";
    out.trial_threads = manifest_.threads;
    for (std::size_t p = 0; p < manifest_.grid.size(); ++p) {
      rc::obs::metrics_registry reg;
      fault_slot faults(nullptr, v);
      rc::trial_options o;
      o.trials = manifest_.trials_per_point;
      o.base_seed = manifest_.base_seed;
      o.max_steps = manifest_.max_steps;
      o.threads = manifest_.threads;
      o.shard_size = manifest_.shard_size;
      o.step_threads = v.step_threads > 0 ? v.step_threads : step_threads();
      o.metrics = metrics_wanted(v, false) ? &reg : nullptr;
      o.profiler = v.profiler;
      o.faults = faults.model;
      const auto t0 = steady::now();
      const double cpu0 = process_cpu_s();
      const rc::trial_set ts = rc::parallel_run_trials(graphs_[p], *protos_[p], o);
      out.cpu_s += process_cpu_s() - cpu0;
      out.wall_s += since(t0);
      check_point(p, ts.trials, chk, &out);
    }
    return out;
  }

  static rc::trial_record from_json(const rc::obs::json_value& j) {
    rc::trial_record t;
    const auto num = [&j](const char* k) -> std::int64_t {
      const auto* f = j.find(k);
      return f != nullptr && f->is_number() ? f->as_int() : -1;
    };
    const auto* c = j.find("completed");
    t.completed = c != nullptr && c->as_bool();
    t.steps = num("steps");
    t.informed_step = num("informed_step");
    t.transmissions = num("transmissions");
    t.collisions = num("collisions");
    t.deliveries = num("deliveries");
    t.crashed_nodes = num("crashed_nodes");
    t.suppressed_deliveries = num("suppressed_deliveries");
    t.churned_edges = num("churned_edges");
    const auto* w = j.find("wall_ms");
    t.wall_ms = w != nullptr && w->is_number() ? w->as_double() : 0.0;
    t.outcome = t.completed ? rc::run_outcome::completed
                            : rc::run_outcome::stuck;
    return t;
  }

  std::string scratch_;
  rc::campaign::manifest manifest_;
  std::vector<rc::campaign::shard_plan> plan_;
  std::vector<rc::graph> graphs_;
  std::vector<std::unique_ptr<rc::protocol>> protos_;
};

/// Cases of one workload differ in speed by design, so each case gets its
/// own median and the cases are combined by geometric mean: a fixed change
/// to one case moves the result by the same factor whatever its speed.
double geomean_of_medians(const std::map<std::string, std::vector<double>>& by_case) {
  double log_sum = 0.0;
  int n = 0;
  for (const auto& [c, v] : by_case) {
    if (v.empty()) continue;
    log_sum += std::log(median(v));
    ++n;
  }
  return n == 0 ? 0.0 : std::exp(log_sum / n);
}

/// Share of all CPU time on the machine that the hypervisor stole from its
/// virtual CPUs between construction and fraction(), from /proc/stat.
class steal_counter {
 public:
  steal_counter() : start_(read()) {}
  double fraction() const {
    const std::vector<long long> end = read();
    long long total = 0, stolen = 0;
    for (std::size_t i = 0; i < end.size() && i < start_.size(); ++i) {
      total += end[i] - start_[i];
      if (i == 7) stolen = end[i] - start_[i];
    }
    return total > 0 ? static_cast<double>(stolen) / static_cast<double>(total)
                     : 0.0;
  }

 private:
  static std::vector<long long> read() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    std::vector<long long> ticks;
    for (long long t = 0; ticks.size() < 8 && in >> t;) ticks.push_back(t);
    return ticks;
  }
  std::vector<long long> start_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// One set-up sample is the CPU time per set-up over back-to-back set-ups
// lasting at least kSetupSampleSeconds. A sample is taken before the
// measured loop and again between its repetitions whenever set-up has had
// less than kSetupShare of the loop's time, and at least kSetupSamples are
// taken; setup_s is their median. On the shared 4-vCPU benchmark host a
// single set-up ran at one of two speeds about 2x apart, so a median of
// single set-ups jumped between the two; a sample averaging several
// set-ups, taken throughout the run, moves smoothly.
constexpr int kSetupSamples = 5;
constexpr double kSetupSampleSeconds = 0.25;
constexpr double kSetupShare = 0.15;

/// Loads a committed expected-records file; empty when the file is absent.
std::map<std::string, sim_record> load_expected(const std::string& path,
                                                std::string* error) {
  std::map<std::string, sim_record> out;
  std::ifstream in(path);
  if (!in) return out;
  std::stringstream ss;
  ss << in.rdbuf();
  const auto doc = rc::obs::json_parse(ss.str(), error);
  const rc::obs::json_value* records =
      doc ? doc->find("records") : nullptr;
  if (records == nullptr || !records->is_object()) {
    if (error != nullptr && error->empty()) *error = path + ": no records";
    return {};
  }
  for (const auto& [key, v] : records->members()) {
    sim_record r;
    if (!sim_record::from_json(v, &r)) {
      if (error != nullptr) *error = path + ": malformed record " + key;
      return {};
    }
    out.emplace(key, r);
  }
  return out;
}

}  // namespace

void checker::check(const std::string& key, const sim_record& rec,
                    bool invariants_ok) {
  ++attempted_;
  std::string why;
  if (!invariants_ok) {
    why = "violates the record invariants";
  } else if (pinned_) {
    const auto it = expected_.find(key);
    if (it == expected_.end()) {
      why = "has no committed expected record";
    } else if (!(it->second == rec)) {
      why = "differs from the committed expected record";
    }
  } else {
    const auto [it, fresh] = seen_.emplace(key, rec);
    if (!fresh && !(it->second == rec)) why = "differs from an earlier run";
  }
  if (pinned_) seen_.emplace(key, rec);
  if (!why.empty()) fail(key + " " + why);
}

void checker::fail(const std::string& what) {
  ++failed_;
  if (errors_.size() < 20) errors_.push_back(what);
}

std::unique_ptr<workload> make_workload(const std::string& name,
                                        const std::string& scratch_dir) {
  if (name == "mega_decay") return std::make_unique<mega_decay>();
  if (name == "token_det") return std::make_unique<token_det>();
  if (name == "faults_observed") return std::make_unique<faults_observed>();
  if (name == "sweep_campaign") {
    return std::make_unique<sweep_campaign>(scratch_dir);
  }
  return nullptr;
}

bench_outcome run_benchmark(const bench_config& cfg) {
  bench_outcome res;
  const std::unique_ptr<workload> w =
      make_workload(cfg.workload, cfg.scratch_dir);
  if (w == nullptr) throw std::runtime_error("unknown workload " + cfg.workload);

  const bool pinned = cfg.seed == kDefaultSeed && cfg.write_expected.empty();
  std::string load_error;
  std::map<std::string, sim_record> expected;
  if (pinned) {
    expected = load_expected(
        cfg.expected_dir + "/" + cfg.workload + ".json", &load_error);
    if (!load_error.empty()) throw std::runtime_error(load_error);
  }
  checker chk(std::move(expected), pinned);

  // Every set-up rebuilds the same inputs from the same seed, so the
  // repetitions after it run on equal graphs, protocols and manifests.
  std::vector<setup_times> setups;
  std::vector<double> setup_cpu;
  double setup_wall = 0.0;
  const auto sample_setup = [&] {
    const auto t0 = steady::now();
    const double cpu0 = process_cpu_s();
    int count = 0;
    do {
      setups.push_back(w->setup(cfg.seed));
      ++count;
    } while (since(t0) < kSetupSampleSeconds);
    setup_cpu.push_back((process_cpu_s() - cpu0) / count);
    setup_wall += since(t0);
  };
  sample_setup();

  if (!cfg.write_expected.empty()) {
    for (int i = 0; i < w->cycle(); ++i) w->run_rep(i, {}, chk);
    w->replay({}, chk);
    auto records = rc::obs::json_value::object();
    for (const auto& [key, r] : chk.seen()) records.set(key, r.to_json());
    auto doc = rc::obs::json_value::object();
    doc.set("workload", cfg.workload);
    doc.set("seed", static_cast<std::int64_t>(cfg.seed));
    doc.set("records", std::move(records));
    std::ofstream(cfg.write_expected) << doc.dump(1) << "\n";
    res.correct = chk.failed() == 0;
    res.attempted = chk.attempted();
    res.failed = chk.failed();
    return res;
  }

  // The measured loop. With tracing, every repetition runs twice back to
  // back, first untraced then with the span profiler attached, so the two
  // halves see the same simulated work and their ratio is the tracing
  // overhead.
  rc::obs::span_profiler loop_prof;
  std::vector<rep_result> plain, traced;
  // One untimed (but checked) repetition first, so that the allocator's
  // first-touch page faults and lazy set-up land outside the measurement.
  w->run_rep(0, {}, chk);
  const int min_reps = std::max(3, std::min(w->cycle(), 4)) * (cfg.trace ? 2 : 1);
  const auto start = steady::now();
  const steal_counter steal;
  const double setup_wall_before = setup_wall;
  for (int i = 0;; ++i) {
    const bool trace_this = cfg.trace && i % 2 == 1;
    const int index = (cfg.trace ? i / 2 : i) % w->cycle();
    variant v;
    if (trace_this) v.profiler = &loop_prof;
    (trace_this ? traced : plain).push_back(w->run_rep(index, v, chk));
    const int done = i + 1;
    if (cfg.trace && done % 2 == 1) continue;  // keep each pair back to back
    while (setup_wall - setup_wall_before < kSetupShare * since(start)) {
      sample_setup();
    }
    // The loop's own time excludes the set-ups between its repetitions.
    if (done >= min_reps &&
        since(start) - (setup_wall - setup_wall_before) >= cfg.seconds) {
      break;
    }
  }
  while (setup_cpu.size() < kSetupSamples) sample_setup();

  const double steal_frac = steal.fraction();
  std::vector<double> gen, make_proto;
  for (const auto& s : setups) {
    gen.push_back(s.graph_gen_s);
    make_proto.push_back(s.make_protocol_s);
  }
  // CPU-time figures per case (the end-to-end metrics) and wall-time
  // figures (reported by the traced run next to the steal they suffer).
  std::map<std::string, std::vector<double>> cpu_rates, cpu_trial_ms_mean,
      wall_rates, wall_trial_ms;
  std::vector<double> all_trial_ms;
  double busy = 0.0, capacity = 0.0;
  for (const auto& r : plain) {
    const auto trials = static_cast<double>(r.total.count);
    cpu_rates[r.rate_case].push_back(static_cast<double>(r.steps) / r.cpu_s);
    // Merging is not trial work; a campaign's export is.
    cpu_trial_ms_mean[r.rate_case].push_back((r.cpu_s - r.merge_cpu_s) * 1e3 /
                                             trials);
    wall_rates[r.rate_case].push_back(static_cast<double>(r.steps) / r.wall_s);
    for (const auto& [c, ms] : r.trial_ms) {
      wall_trial_ms[c].insert(wall_trial_ms[c].end(), ms.begin(), ms.end());
      all_trial_ms.insert(all_trial_ms.end(), ms.begin(), ms.end());
    }
    busy += r.trial_busy_s;
    capacity += r.wall_s * r.trial_threads;
  }
  const auto note = [&res](const std::string& s) { res.notes.push_back(s); };
  const auto note_case = [&note](const char* what, const auto& by_case) {
    for (const auto& [c, v] : by_case) {
      std::string line = "case " + c + " " + what + " median " +
                         std::to_string(median(v)) + " of";
      for (double x : v) {
        line += ' ';
        line += std::to_string(x);
      }
      note(line);
    }
  };
  note_case("sim_steps_per_cpu_s", cpu_rates);
  note_case("wall sim_steps_per_s", wall_rates);
  note("setup_s median " + std::to_string(median(setup_cpu)) + " of " +
       std::to_string(setup_cpu.size()) + " samples over " +
       std::to_string(setups.size()) + " set-ups");
  for (const auto& [c, v] : wall_trial_ms) {
    note("case " + c + " wall trial_ms median " + std::to_string(median(v)) +
         " of " + std::to_string(v.size()) + " trials");
  }
  note("reps " + std::to_string(plain.size()) + " untraced, " +
       std::to_string(traced.size()) + " traced; wall trial samples " +
       std::to_string(all_trial_ms.size()) + "; host steal " +
       std::to_string(steal_frac));
  if (tail_percentile_ok(all_trial_ms.size(), 0.9)) {
    note("wall trial_ms_p90 " + std::to_string(percentile(all_trial_ms, 0.9)) +
         " ms");
  } else {
    note("wall trial_ms_p90 not reported: fewer than ten samples beyond it");
  }

  auto& m = res.metrics;
  if (!cfg.trace) {
    m.push_back({"setup_s", median(setup_cpu), "s"});
    m.push_back({"sim_steps_per_cpu_s", geomean_of_medians(cpu_rates), "1/s"});
    m.push_back({"trial_cpu_ms_mean", geomean_of_medians(cpu_trial_ms_mean),
                 "ms"});
    m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  } else {
    // Single-layer legs, each one replay of a fixed subset.
    rc::obs::span_profiler prof1, prof4;
    variant v1;
    v1.step_threads = 1;
    v1.profiler = &prof1;
    const rep_result r1 = w->replay(v1, chk);
    variant v4;
    v4.step_threads = 4;
    v4.profiler = &prof4;
    const rep_result r4 = w->replay(v4, chk);
    const bool own4 = w->step_threads() == 4;
    const rep_result& base = own4 ? r4 : r1;
    const rc::obs::span_profiler& base_prof = own4 ? prof4 : prof1;
    const bool metrics_default = w->metrics_on();
    variant vm;
    vm.metrics = metrics_default ? 0 : 1;
    const rep_result rm = w->replay(vm, chk);
    fault_timing ft;
    variant vf;
    vf.fault_timer = &ft;
    w->replay(vf, chk);

    std::vector<double> overhead;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      overhead.push_back(traced[i].wall_s / plain[i].wall_s);
    }
    const auto n_traced = static_cast<double>(traced.size());
    const double loop_ns =
        static_cast<double>(span_total_ns(base_prof, "step_loop"));

    m.push_back({"graph.gen_s", median(gen), "s"});
    m.push_back({"graph.edges", static_cast<double>(w->edges()), "count"});
    m.push_back({"core.make_protocol_s", median(make_proto), "s"});
    m.push_back({"sim.setup_s",
                 static_cast<double>(span_total_ns(loop_prof, "setup")) /
                     1e9 / n_traced,
                 "s"});
    m.push_back({"sim.step_loop_s",
                 static_cast<double>(span_total_ns(loop_prof, "step_loop")) /
                     1e9 / n_traced,
                 "s"});
    m.push_back({"sim.steps", static_cast<double>(base.total.steps), "count"});
    m.push_back({"sim.transmissions",
                 static_cast<double>(base.total.transmissions), "count"});
    m.push_back({"sim.deliveries", static_cast<double>(base.total.deliveries),
                 "count"});
    m.push_back({"sim.collisions", static_cast<double>(base.total.collisions),
                 "count"});
    m.push_back({"sim.awake_node_steps",
                 static_cast<double>(base.work.awake_node_steps), "count"});
    m.push_back({"sim.ns_per_awake_node_step",
                 loop_ns / static_cast<double>(base.work.awake_node_steps),
                 "ns"});
    m.push_back({"sim.edge_slots_scanned",
                 static_cast<double>(base.work.edge_slots_scanned), "count"});
    m.push_back({"sim.ns_per_edge_slot",
                 loop_ns / static_cast<double>(base.work.edge_slots_scanned),
                 "ns"});
    m.push_back({"exec.step_shard_speedup", r1.wall_s / r4.wall_s, "x"});
    m.push_back({"exec.trial_busy_frac", busy / capacity, "ratio"});
    m.push_back({"exec.trial_idle_s",
                 (capacity - busy) / static_cast<double>(plain.size()), "s"});
    m.push_back({"fault.begin_step_s",
                 static_cast<double>(ft.begin_step_ns.load()) / 1e9, "s"});
    m.push_back({"fault.filter_s",
                 static_cast<double>(ft.filter_ns.load()) / 1e9, "s"});
    m.push_back({"fault.calls", static_cast<double>(ft.calls.load()), "count"});
    m.push_back({"fault.crashes", static_cast<double>(base.total.crashes),
                 "count"});
    m.push_back({"fault.recoveries", static_cast<double>(base.total.recoveries),
                 "count"});
    m.push_back({"fault.suppressed", static_cast<double>(base.total.suppressed),
                 "count"});
    m.push_back({"obs.metrics_on_over_off",
                 metrics_default ? base.wall_s / rm.wall_s
                                 : rm.wall_s / base.wall_s,
                 "x"});

    double run_s = 0.0, merge_s = 0.0, bytes = 0.0, export_s = 0.0;
    if (cfg.workload == "sweep_campaign") {
      std::vector<double> runs, merges, sizes;
      for (const auto& r : plain) {
        runs.push_back(r.campaign_run_s);
        merges.push_back(r.campaign_merge_s);
        sizes.push_back(static_cast<double>(r.bytes_written));
      }
      variant vb;
      vb.bare = true;
      const rep_result bare = w->run_rep(0, vb, chk);
      run_s = median(runs);
      merge_s = median(merges);
      bytes = median(sizes);
      export_s = run_s - bare.wall_s;
    }
    m.push_back({"campaign.run_s", run_s, "s"});
    m.push_back({"campaign.merge_s", merge_s, "s"});
    m.push_back({"campaign.bytes_written", bytes, "bytes"});
    m.push_back({"campaign.export_overhead_s", export_s, "s"});
    m.push_back({"trace_overhead", median(overhead), "x"});
    m.push_back({"wall.sim_steps_per_s", geomean_of_medians(wall_rates), "1/s"});
    m.push_back({"wall.trial_ms_p50", geomean_of_medians(wall_trial_ms), "ms"});
    m.push_back({"host.steal_frac", steal_frac, "ratio"});
  }

  res.attempted = chk.attempted();
  res.failed = chk.failed();
  res.correct = res.failed == 0 && res.attempted > 0;
  for (const auto& e : chk.errors()) note("FAILED " + e);
  note("failed_frac " + std::to_string(static_cast<double>(res.failed) /
                                        static_cast<double>(res.attempted)));
  return res;
}

}  // namespace perfbench
