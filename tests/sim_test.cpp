// Tests of the radio simulator's semantics: the collision model (receive
// iff exactly one transmitting in-neighbor, collision ≡ silence), the
// no-spontaneous-transmission rule, directed operation, tracing, the
// run-loop bookkeeping, and that observing a run never changes it.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <sstream>

#include "core/dfs_known.h"
#include "core/runner.h"
#include "fault/loss.h"
#include "fault/recovery.h"
#include "graph/analysis.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/simulator.h"
#include "sim/soa_engine.h"
#include "sim/trace.h"

namespace radiocast {
namespace {

// A scripted protocol for exercising the simulator: each node transmits at
// exactly the steps listed in its script and records everything it receives.
// Reception logs are exposed through a shared observer (the protocol is a
// test fixture, not a real broadcasting algorithm).
struct script_observer {
  std::map<node_id, std::vector<std::pair<std::int64_t, node_id>>> received;
};

using script_map = std::map<node_id, std::vector<std::int64_t>>;

// The scripts are variable-length per-label data, so they live on the
// traits object; the per-node state is just the label and informed flag.
struct scripted_soa_traits {
  const script_map* scripts = nullptr;
  script_observer* observer = nullptr;

  struct state {
    node_id label = 0;
    bool informed = false;
  };

  void init(state* s, node_id label) const {
    s->label = label;
    s->informed = (label == 0);
  }

  std::optional<message> on_step(state* s, const node_context& ctx) const {
    const auto it = scripts->find(s->label);
    if (it == scripts->end()) return std::nullopt;
    for (const std::int64_t t : it->second) {
      if (t == ctx.step) return message{1, s->label, ctx.step, 0, 0, 0};
    }
    return std::nullopt;
  }

  void on_receive(state* s, const node_context& ctx,
                  const message& msg) const {
    s->informed = true;
    observer->received[s->label].emplace_back(ctx.step, msg.from);
  }

  bool informed(const state& s) const { return s.informed; }
  bool halted(const state&) const { return false; }
  void on_restart(state* s, const node_context&) const { init(s, s->label); }
};

class scripted_protocol final : public protocol {
 public:
  scripted_protocol(script_map scripts, script_observer* observer)
      : scripts_(std::move(scripts)), observer_(observer) {}

  std::string name() const override { return "scripted"; }
  bool deterministic() const override { return true; }
  std::unique_ptr<const bound_protocol> bind(node_id r) const override {
    return bind_traits(scripted_soa_traits{&scripts_, observer_}, r);
  }

 private:
  script_map scripts_;
  script_observer* observer_;
};

run_options capped(std::int64_t max_steps) {
  run_options o;
  o.max_steps = max_steps;
  return o;
}

/// Like capped(), but runs the full step budget even after everyone is
/// informed (scripted nodes never halt) — for post-wake collision checks.
run_options capped_full(std::int64_t max_steps) {
  run_options o = capped(max_steps);
  o.stop = stop_condition::all_halted;
  return o;
}

// ---------- collision semantics ----------

TEST(SimTest, SingleTransmitterIsReceived) {
  // star: 0 is adjacent to 1, 2, 3.
  graph g = make_star(4);
  script_observer obs;
  scripted_protocol proto({{0, {0}}}, &obs);
  run_broadcast(g, proto, capped(2));
  for (node_id v : {1, 2, 3}) {
    ASSERT_EQ(obs.received[v].size(), 1u) << "node " << v;
    EXPECT_EQ(obs.received[v][0], (std::pair<std::int64_t, node_id>{0, 0}));
  }
}

TEST(SimTest, TwoTransmittersCollideIntoSilence) {
  // path 1 - 0 - 2: both 1 and 2 transmit at step 1 → 0 hears nothing.
  graph g = graph::undirected(3);
  g.add_edge(1, 0);
  g.add_edge(2, 0);
  g.finalize();
  script_observer obs;
  // step 0: source wakes 1 and 2; step 1: both reply simultaneously.
  scripted_protocol proto({{0, {0}}, {1, {1}}, {2, {1}}}, &obs);
  const run_result r = run_broadcast(g, proto, capped_full(3));
  EXPECT_TRUE(obs.received[0].empty());  // collision ≡ silence
  EXPECT_GE(r.collisions, 1);
}

TEST(SimTest, CollisionOnlyAffectsCommonNeighbor) {
  //   0 - 1, 0 - 2, 2 - 3 : step 0 source wakes 1, 2; step 1 node 2 relays
  // to 3; step 2 nodes 1 and 3 transmit together. Node 0 (neighbors 1, 2)
  // hears only 1; node 2 (neighbors 0, 3) hears only 3 — no collision
  // anywhere despite two simultaneous transmitters.
  graph g = graph::undirected(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  g.finalize();
  script_observer obs;
  scripted_protocol proto({{0, {0}}, {2, {1}}, {1, {2}}, {3, {2}}}, &obs);
  const run_result r = run_broadcast(g, proto, capped_full(4));
  ASSERT_EQ(obs.received[0].size(), 2u);
  EXPECT_EQ(obs.received[0][0].second, 2);  // the step-1 relay
  EXPECT_EQ(obs.received[0][1].second, 1);  // step 2: only neighbor 1
  ASSERT_EQ(obs.received[2].size(), 2u);    // from 0 at step 0, from 3 at 2
  EXPECT_EQ(obs.received[2][1].second, 3);
  EXPECT_EQ(r.collisions, 0);
}

TEST(SimTest, TransmitterCannotReceiveSimultaneously) {
  // 0 - 1 both transmit at step 0... node 1 cannot transmit spontaneously,
  // so use: step 0 source, step 1 both 0 and 1 transmit → neither receives.
  graph g = make_path(2);
  script_observer obs;
  scripted_protocol proto({{0, {0, 1}}, {1, {1}}}, &obs);
  run_broadcast(g, proto, capped_full(3));
  ASSERT_EQ(obs.received[1].size(), 1u);  // only the step-0 wake
  EXPECT_TRUE(obs.received[0].empty());
}

TEST(SimTest, ThreeTransmittersStillSilence) {
  graph g = make_star(5);  // 0 center
  script_observer obs;
  scripted_protocol proto({{0, {0}}, {1, {1}}, {2, {1}}, {3, {1}}}, &obs);
  run_broadcast(g, proto, capped_full(3));
  EXPECT_TRUE(obs.received[0].empty());
  // Node 4 is a leaf: hears nothing at step 1 (its only neighbor 0 silent).
  ASSERT_EQ(obs.received[4].size(), 1u);
}

// ---------- model rules ----------

TEST(SimTest, SpontaneousTransmissionIsRejected) {
  graph g = make_path(3);
  script_observer obs;
  // Node 2 tries to transmit at step 0 without ever having received. The
  // reference engine steps every node and rejects it directly.
  scripted_protocol proto({{2, {0}}}, &obs);
  run_options opts = capped(2);
  opts.engine = step_engine::reference;
  EXPECT_THROW(run_broadcast(g, proto, opts), invariant_error);
}

TEST(SimTest, ReferenceEngineRejectsLateSpontaneousTransmission) {
  graph g = make_path(3);
  script_observer obs;
  // Step 0 wakes node 1 only; node 2 is still dormant when it transmits
  // at step 1. The soa engine never steps a dormant node, so only the
  // reference engine can see the violation.
  scripted_protocol proto({{0, {0}}, {2, {1}}}, &obs);
  run_options opts = capped_full(3);
  opts.engine = step_engine::reference;
  EXPECT_THROW(run_broadcast(g, proto, opts), invariant_error);
}

TEST(SimTest, ReferenceEngineAcceptsContractAbidingProtocol) {
  graph g = make_path(3);
  script_observer obs;
  scripted_protocol proto({{0, {0}}, {1, {1}}}, &obs);
  run_options opts = capped_full(4);
  opts.engine = step_engine::reference;
  EXPECT_NO_THROW(run_broadcast(g, proto, opts));
  EXPECT_EQ(obs.received[2].size(), 1u);
}

// A protocol that draws from its generator on every step, informed or
// not, and transmits only from the source at step 0: it never transmits
// while dormant, but its dormant draws break the pooled-RNG identity
// between engines (sim/protocol.h).
struct dormant_drawer_soa_traits {
  struct state {
    node_id label = 0;
    bool informed = false;
  };
  void init(state* s, node_id label) const {
    s->label = label;
    s->informed = label == 0;
  }
  std::optional<message> on_step(state* s, const node_context& ctx) const {
    ctx.gen->next();
    if (!s->informed || ctx.step != 0) return std::nullopt;
    return message{1, s->label, ctx.step, 0, 0, 0};
  }
  void on_receive(state* s, const node_context&, const message&) const {
    s->informed = true;
  }
  bool informed(const state& s) const { return s.informed; }
  bool halted(const state&) const { return false; }
  void on_restart(state* s, const node_context&) const { init(s, s->label); }
};

class dormant_drawer_protocol final : public protocol {
 public:
  std::string name() const override { return "dormant-drawer"; }
  bool deterministic() const override { return false; }
  std::unique_ptr<const bound_protocol> bind(node_id r) const override {
    return bind_traits(dormant_drawer_soa_traits{}, r);
  }
};

TEST(SimTest, ReferenceEngineRejectsDormantRandomDraw) {
  graph g = make_path(3);
  const dormant_drawer_protocol proto;
  run_options opts = capped_full(3);
  opts.engine = step_engine::reference;
  EXPECT_THROW(run_broadcast(g, proto, opts), invariant_error);
}

TEST(SimTest, UnfinalizedGraphIsRejected) {
  graph g = graph::undirected(2);
  g.add_edge(0, 1);
  script_observer obs;
  scripted_protocol proto({{0, {0}}}, &obs);
  EXPECT_THROW(run_broadcast(g, proto, capped(2)), precondition_error);
}

TEST(SimTest, EnginesAgreeOnScriptedRun) {
  graph g = make_star(6);
  for (const auto engine : {step_engine::soa, step_engine::reference}) {
    script_observer obs;
    scripted_protocol proto({{0, {0}}, {1, {1}}, {2, {2}}}, &obs);
    run_options opts = capped_full(4);
    opts.engine = engine;
    // Step 0: the center informs all 5 leaves; steps 1 and 2: one leaf
    // each replies to the center (a leaf's only neighbor).
    const run_result r = run_broadcast(g, proto, opts);
    EXPECT_EQ(r.deliveries, 5 + 1 + 1) << "engine differs";
    EXPECT_EQ(obs.received[0].size(), 2u);
  }
}

TEST(SimTest, SourceMayTransmitImmediately) {
  graph g = make_path(2);
  script_observer obs;
  scripted_protocol proto({{0, {0}}}, &obs);
  EXPECT_NO_THROW(run_broadcast(g, proto, capped(2)));
}

TEST(SimTest, DirectedEdgesDeliverOneWay) {
  graph g = graph::directed(3);
  g.add_edge(0, 1);  // 0 → 1
  g.add_edge(2, 1);  // 2 → 1 (2 unreachable from 0; it stays silent)
  g.finalize();
  script_observer obs;
  scripted_protocol proto({{0, {0, 1}}}, &obs);
  run_broadcast(g, proto, capped_full(3));
  EXPECT_EQ(obs.received[1].size(), 2u);
  EXPECT_TRUE(obs.received[0].empty());  // no arc into 0
  EXPECT_TRUE(obs.received[2].empty());  // no arc into 2
}

TEST(SimTest, DirectedCollisionUsesInNeighbors) {
  // 0→2, 1→2, 0→1: step 0: 0 transmits (1 and 2 hear). step 1: 0 and 1
  // transmit → 2 has two transmitting in-neighbors → silence.
  graph g = graph::directed(3);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(0, 1);
  g.finalize();
  script_observer obs;
  scripted_protocol proto({{0, {0, 1}}, {1, {1}}}, &obs);
  run_broadcast(g, proto, capped_full(3));
  ASSERT_EQ(obs.received[2].size(), 1u);  // only the step-0 message
  EXPECT_EQ(obs.received[2][0].first, 0);
}

// ---------- bookkeeping ----------

TEST(SimTest, InformedAtTracksFirstReception) {
  graph g = make_path(3);
  script_observer obs;
  scripted_protocol proto({{0, {0}}, {1, {4}}}, &obs);
  const run_result r = run_broadcast(g, proto, capped(10));
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.informed_at[0], 0);
  EXPECT_EQ(r.informed_at[1], 0);
  EXPECT_EQ(r.informed_at[2], 4);
  EXPECT_EQ(r.informed_step, 5);  // completed after step 4
}

TEST(SimTest, IncompleteRunReportsFailure) {
  graph g = make_path(3);
  script_observer obs;
  scripted_protocol proto({{0, {0}}}, &obs);  // node 2 never reached
  const run_result r = run_broadcast(g, proto, capped(5));
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.steps, 5);
  EXPECT_EQ(r.informed_at[2], -1);
}

TEST(SimTest, CountersAreConsistent) {
  graph g = make_star(4);
  script_observer obs;
  scripted_protocol proto({{0, {0}}, {1, {1}}, {2, {1}}, {3, {2}}}, &obs);
  const run_result r = run_broadcast(g, proto, capped_full(4));
  // transmissions: 0@0, 1@1, 2@1, 3@2.
  EXPECT_EQ(r.transmissions, 4);
  // deliveries: 3 at step 0; collision at 0 in step 1; 3@2 delivers to 0.
  EXPECT_EQ(r.collisions, 1);
  EXPECT_EQ(r.deliveries, 4);
}

TEST(SimTest, TraceRecordsEvents) {
  graph g = make_path(2);
  script_observer obs;
  scripted_protocol proto({{0, {0}}}, &obs);
  trace t;
  run_options opts = capped(2);
  opts.sink = &t;
  run_broadcast(g, proto, opts);
  EXPECT_EQ(t.filter(trace_event::type::transmit).size(), 1u);
  EXPECT_EQ(t.filter(trace_event::type::receive).size(), 1u);
  EXPECT_EQ(t.filter(trace_event::type::informed).size(), 1u);
  EXPECT_NE(t.to_string().find("transmits"), std::string::npos);
}

TEST(SimTest, ExplicitLabelBoundValidated) {
  graph g = make_path(2);
  script_observer obs;
  scripted_protocol proto({{0, {0}}}, &obs);
  EXPECT_THROW(run_broadcast_with_r(g, proto, 0, capped(2)),
               precondition_error);
  EXPECT_NO_THROW(run_broadcast_with_r(g, proto, 5, capped(2)));
}

TEST(SimTest, CompletionTimesThrowsOnNonCompletion) {
  graph g = make_path(3);
  script_observer obs;
  scripted_protocol proto({{0, {0}}}, &obs);
  EXPECT_THROW(completion_times(g, proto, 1, 1, 5), invariant_error);
}

// ---------- trial_set accounting ----------

trial_record make_trial(std::uint64_t seed, bool completed,
                        std::int64_t informed_step, double wall_ms) {
  trial_record t;
  t.seed = seed;
  t.completed = completed;
  t.steps = completed ? informed_step : 100;
  t.informed_step = completed ? informed_step : -1;
  t.wall_ms = wall_ms;
  return t;
}

TEST(SimTest, TrialSetAccountingOnMixedBatch) {
  trial_set batch;
  batch.trials.push_back(make_trial(1, true, 40, 1.0));
  batch.trials.push_back(make_trial(2, false, -1, 2.5));
  batch.trials.push_back(make_trial(3, true, 60, 0.5));
  batch.trials.push_back(make_trial(4, false, -1, 4.0));

  EXPECT_EQ(batch.completed_count(), 2u);
  EXPECT_FALSE(batch.all_completed());
  EXPECT_DOUBLE_EQ(batch.timeout_rate(), 0.5);
  // completion_steps: completed trials only, in trial order.
  const std::vector<double> steps = batch.completion_steps();
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_DOUBLE_EQ(steps[0], 40.0);
  EXPECT_DOUBLE_EQ(steps[1], 60.0);
  // wall-clock sums over ALL trials, timed-out ones included.
  EXPECT_DOUBLE_EQ(batch.total_wall_ms(), 8.0);
}

TEST(SimTest, TrialSetAccountingEdgeCases) {
  trial_set empty;
  EXPECT_EQ(empty.completed_count(), 0u);
  EXPECT_TRUE(empty.all_completed());  // vacuous
  EXPECT_DOUBLE_EQ(empty.timeout_rate(), 0.0);
  EXPECT_TRUE(empty.completion_steps().empty());

  trial_set all_timeout;
  all_timeout.trials.push_back(make_trial(1, false, -1, 1.0));
  all_timeout.trials.push_back(make_trial(2, false, -1, 1.0));
  EXPECT_EQ(all_timeout.completed_count(), 0u);
  EXPECT_DOUBLE_EQ(all_timeout.timeout_rate(), 1.0);
  EXPECT_TRUE(all_timeout.completion_steps().empty());
}

TEST(SimTest, RunTrialsRecordsTimeoutsAsData) {
  // A source that transmits only at step 0 cannot inform a 4-path within
  // the cap: every trial must time out, with no exception thrown.
  graph g = make_path(4);
  script_observer obs;
  scripted_protocol proto({{0, {0}}}, &obs);
  trial_options topts;
  topts.trials = 3;
  topts.base_seed = 7;
  topts.max_steps = 10;
  const trial_set batch = run_trials(g, proto, topts);
  ASSERT_EQ(batch.trials.size(), 3u);
  EXPECT_DOUBLE_EQ(batch.timeout_rate(), 1.0);
  for (std::size_t t = 0; t < batch.trials.size(); ++t) {
    EXPECT_EQ(batch.trials[t].seed, 7u + t);
    EXPECT_FALSE(batch.trials[t].completed);
    EXPECT_EQ(batch.trials[t].steps, 10);
    EXPECT_EQ(batch.trials[t].informed_step, -1);
    EXPECT_EQ(batch.trials[t].crashed_nodes, 0);
    EXPECT_EQ(batch.trials[t].suppressed_deliveries, 0);
    EXPECT_EQ(batch.trials[t].churned_edges, 0);
  }
}

TEST(SimTest, CompletionTimesMatchesRunTrialsOnCompletion) {
  // Star: the source transmits once, everyone is informed at step 0.
  graph g = make_star(5);
  script_observer obs;
  scripted_protocol proto({{0, {0}}}, &obs);
  trial_options topts;
  topts.trials = 4;
  topts.base_seed = 3;
  topts.max_steps = 10;
  const trial_set batch = run_trials(g, proto, topts);
  EXPECT_TRUE(batch.all_completed());
  const std::vector<double> direct = completion_times(g, proto, 4, 3, 10);
  EXPECT_EQ(direct, batch.completion_steps());
}

// ---------- observation is side-effect free ----------

struct observed_run {
  std::string record;  // every scalar field of run_result
  std::vector<std::int64_t> informed_at;
  std::vector<std::int64_t> transmissions_per_node;
  std::string trace_ndjson;  // empty without a sink
};

struct observers {
  bool metrics = false;
  bool profiler = false;
  bool sink = false;
};

observed_run run_observed(const graph& g, const protocol& proto,
                          bool faulted, int step_threads, observers on) {
  fault::recovery_options ro;
  ro.schedule = {{1, 3}, {4, 5}, {7, 9}, {0, 12}};
  ro.crash_probability = 0.002;
  ro.mode = fault::recovery_mode::amnesia;
  ro.downtime = 4;
  fault::recovery_model recovery(ro);
  fault::loss_model loss(fault::loss_options{0.1});
  fault::composite_fault_model faults({&recovery, &loss});
  obs::metrics_registry registry;
  obs::span_profiler profiler;
  trace sink;

  run_options opts;
  opts.seed = 7;
  opts.max_steps = 1500;
  opts.step_threads = step_threads;
  opts.step_shard_grain = 1;
  if (faulted) opts.faults = &faults;
  if (on.metrics) opts.metrics = &registry;
  if (on.profiler) opts.profiler = &profiler;
  if (on.sink) opts.sink = &sink;
  run_result r = run_broadcast(g, proto, opts);

  observed_run out;
  std::ostringstream rec;
  rec << r.completed << ' ' << r.steps << ' ' << r.informed_step << ' '
      << r.transmissions << ' ' << r.collisions << ' ' << r.deliveries << ' '
      << r.crashed_nodes << ' ' << r.recoveries << ' '
      << r.suppressed_deliveries << ' ' << r.churned_edges << ' '
      << r.reachable_nodes << ' ' << r.informed_reachable << ' '
      << run_outcome_name(r.outcome);
  out.record = rec.str();
  out.informed_at = std::move(r.informed_at);
  out.transmissions_per_node = std::move(r.transmissions_per_node);
  if (on.sink) {
    std::ostringstream nd;
    sink.to_ndjson(nd);
    out.trace_ndjson = nd.str();
  }
  return out;
}

// Metrics, the span profiler and a trace sink, each on or off, leave the
// run untouched; the trace does not depend on metrics either. Guards the
// metrics-on serial pin of phase 1 and transmit events recorded in phase
// 1's ordered merge (step_threads 4 at grain 1 shards both phases).
TEST(SimTest, ObservationIsSideEffectFree) {
  std::vector<graph> graphs;
  graphs.push_back(make_complete_layered_uniform(32, 4));
  rng gen(11);
  graphs.push_back(make_gnp_connected(24, 6.0 / 24, gen));
  for (const graph& g : graphs) {
    const node_id r = g.node_count() - 1;
    std::vector<std::unique_ptr<protocol>> protos;
    for (const std::string& name : protocol_names()) {
      const int arg = name == "selective" ? max_degree(g) + 1 : radius_from(g);
      protos.push_back(make_protocol(name, r, arg));
    }
    protos.push_back(std::make_unique<dfs_known_protocol>(g));
    for (const auto& proto : protos) {
      for (const bool faulted : {false, true}) {
        for (const int threads : {1, 4}) {
          SCOPED_TRACE(proto->name() + " n=" + std::to_string(g.node_count()) +
                       (faulted ? " amnesia+loss" : " fault-free") +
                       " step_threads=" + std::to_string(threads));
          const observed_run plain =
              run_observed(g, *proto, faulted, threads, {});
          std::string trace_without_metrics;
          for (int mask = 1; mask < 8; ++mask) {
            const observers on{(mask & 1) != 0, (mask & 2) != 0,
                               (mask & 4) != 0};
            const observed_run watched =
                run_observed(g, *proto, faulted, threads, on);
            EXPECT_EQ(watched.record, plain.record) << "observers " << mask;
            EXPECT_EQ(watched.informed_at, plain.informed_at);
            EXPECT_EQ(watched.transmissions_per_node,
                      plain.transmissions_per_node);
            if (!on.sink) continue;
            EXPECT_FALSE(watched.trace_ndjson.empty());
            if (trace_without_metrics.empty()) {
              trace_without_metrics = watched.trace_ndjson;  // mask 4
            } else {
              EXPECT_TRUE(watched.trace_ndjson == trace_without_metrics)
                  << "observers " << mask << ": the trace changed";
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace radiocast
