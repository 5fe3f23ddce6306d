#include "record.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

std::uint64_t fnv_mix(std::uint64_t h, std::int64_t v) {
  auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    h ^= (u >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::int64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void sum_spans(const radiocast::obs::span_stats& s, const std::string& name,
               std::int64_t* total) {
  if (s.name == name) *total += s.total_ns;
  for (const auto& c : s.children) sum_spans(*c, name, total);
}

}  // namespace

void sim_record::add(const radiocast::trial_record& t) {
  const std::int64_t fields[] = {
      t.completed ? 1 : 0,  static_cast<std::int64_t>(t.outcome),
      t.steps,              t.informed_step,
      t.transmissions,      t.collisions,
      t.deliveries,         t.crashed_nodes,
      t.recoveries,         t.suppressed_deliveries};
  for (std::int64_t f : fields) digest = fnv_mix(digest, f);
  ++count;
  steps += t.steps;
  informed_step += t.informed_step;
  transmissions += t.transmissions;
  collisions += t.collisions;
  deliveries += t.deliveries;
  crashes += t.crashed_nodes;
  recoveries += t.recoveries;
  suppressed += t.suppressed_deliveries;
}

void sim_record::add(const radiocast::run_result& r) { add(to_trial(r)); }

void sim_record::add(const sim_record& other) {
  digest = fnv_mix(digest, static_cast<std::int64_t>(other.digest));
  count += other.count;
  steps += other.steps;
  informed_step += other.informed_step;
  transmissions += other.transmissions;
  collisions += other.collisions;
  deliveries += other.deliveries;
  crashes += other.crashes;
  recoveries += other.recoveries;
  suppressed += other.suppressed;
}

radiocast::obs::json_value sim_record::to_json() const {
  auto v = radiocast::obs::json_value::object();
  v.set("count", count);
  v.set("steps", steps);
  v.set("informed_step", informed_step);
  v.set("transmissions", transmissions);
  v.set("collisions", collisions);
  v.set("deliveries", deliveries);
  v.set("crashes", crashes);
  v.set("recoveries", recoveries);
  v.set("suppressed", suppressed);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  v.set("digest", std::string(hex));
  return v;
}

bool sim_record::from_json(const radiocast::obs::json_value& v,
                           sim_record* out) {
  const char* ints[] = {"count",      "steps",    "informed_step",
                        "transmissions", "collisions", "deliveries",
                        "crashes",    "recoveries", "suppressed"};
  std::int64_t* dst[] = {&out->count,         &out->steps,
                         &out->informed_step, &out->transmissions,
                         &out->collisions,    &out->deliveries,
                         &out->crashes,       &out->recoveries,
                         &out->suppressed};
  for (std::size_t i = 0; i < std::size(ints); ++i) {
    const auto* f = v.find(ints[i]);
    if (f == nullptr || !f->is_number()) return false;
    *dst[i] = f->as_int();
  }
  const auto* d = v.find("digest");
  if (d == nullptr || !d->is_string() || d->as_string().size() != 16) {
    return false;
  }
  char* end = nullptr;
  out->digest = std::strtoull(d->as_string().c_str(), &end, 16);
  return end != nullptr && *end == '\0';
}

radiocast::trial_record to_trial(const radiocast::run_result& r) {
  radiocast::trial_record t;
  t.completed = r.completed;
  t.steps = r.steps;
  t.informed_step = r.informed_step;
  t.transmissions = r.transmissions;
  t.collisions = r.collisions;
  t.deliveries = r.deliveries;
  t.crashed_nodes = r.crashed_nodes;
  t.recoveries = r.recoveries;
  t.suppressed_deliveries = r.suppressed_deliveries;
  t.churned_edges = r.churned_edges;
  t.reachable_nodes = r.reachable_nodes;
  t.informed_reachable = r.informed_reachable;
  t.outcome = r.outcome;
  return t;
}

bool trial_ok(const radiocast::trial_record& t,
              radiocast::node_id fault_free_n) {
  if (!t.completed || t.outcome != radiocast::run_outcome::completed) {
    return false;
  }
  if (t.informed_step < 0 || t.informed_step > t.steps) return false;
  if (t.transmissions < 1 || t.collisions < 0) return false;
  if (fault_free_n > 0 && t.deliveries < fault_free_n - 1) return false;
  return true;
}

void work_counters::add(const radiocast::graph& g,
                        const radiocast::run_result& r) {
  for (std::size_t v = 0; v < r.informed_at.size(); ++v) {
    if (r.informed_at[v] >= 0) awake_node_steps += r.steps - r.informed_at[v];
    const auto deg = static_cast<std::int64_t>(
        g.out_neighbors(static_cast<radiocast::node_id>(v)).size());
    edge_slots_scanned += r.transmissions_per_node[v] * deg;
  }
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::size_t samples_beyond(std::size_t n, double q) {
  const auto at_or_below =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(at_or_below, n);
}

bool tail_percentile_ok(std::size_t n, double q) {
  return samples_beyond(n, q) >= 10;
}

std::int64_t span_total_ns(const radiocast::obs::span_profiler& p,
                           const std::string& name) {
  std::int64_t total = 0;
  for (const auto& r : p.roots()) sum_spans(*r, name, &total);
  return total;
}

void timed_fault_model::begin_step(const radiocast::fault::step_view& view,
                                   radiocast::fault::step_faults* out) {
  const auto t0 = std::chrono::steady_clock::now();
  inner_->begin_step(view, out);
  timing_->begin_step_ns.fetch_add(elapsed_ns(t0), std::memory_order_relaxed);
  timing_->calls.fetch_add(1, std::memory_order_relaxed);
}

void timed_fault_model::filter_deliveries(
    const radiocast::fault::step_view& view,
    std::vector<radiocast::fault::delivery_candidate>* candidates) {
  const auto t0 = std::chrono::steady_clock::now();
  inner_->filter_deliveries(view, candidates);
  timing_->filter_ns.fetch_add(elapsed_ns(t0), std::memory_order_relaxed);
  timing_->calls.fetch_add(1, std::memory_order_relaxed);
}

std::unique_ptr<radiocast::fault::fault_model> timed_fault_model::clone()
    const {
  auto inner = inner_->clone();
  if (inner == nullptr) return nullptr;
  return std::make_unique<timed_fault_model>(std::move(inner), timing_);
}

}  // namespace perfbench
