// The step engine: where every protocol's traits run.
//
// A protocol is defined once, as a traits struct (contract below), and
// reaches the engine through bind_traits (end of this file). soa_run
// instantiates the one step loop for those traits and owns everything a
// broadcast run needs: label checks and setup, fault application, the
// reception scan and commit, trace events, per-step metrics, completion
// and the outcome post-mortem.
//
//   * STATE: per-node protocol state is one contiguous std::vector of a POD
//     `Traits::state`, next to the flat awake/crashed/received masks and
//     the per-node RNG pool (`gens_`, split from the root seed in node
//     order 0…n−1) — phase 1 is a linear walk over dense arrays;
//   * DISPATCH: the loop is templated on the protocol's Traits, so
//     traits.on_step inlines into it. Runtime protocol selection happens
//     ONCE per run (one virtual bound_protocol::run call), not per step;
//   * FRONTIER: phase 1 visits only the awake set — O(|awake|) per step,
//     bit-identical to stepping all n by the dormant-node contract
//     (sim/protocol.h);
//   * SHARDING: phase 1 (transmit decisions) and phase 2 (reception scan)
//     of a SINGLE step can fan out over an exec::thread_pool
//     (run_options::step_threads) and still produce bit-identical results.
//
// run_options::engine == step_engine::reference changes exactly two things
// in that loop, keeping it the differential oracle: phase 1 visits all n
// nodes, serially, checking the no-spontaneous-transmission rule directly,
// and phase 2 runs its own scan with a per-neighbor fault branch instead
// of the soa scan below. Every other part of a step is the same code, so
// the two engines can only disagree where they actually differ.
//
// THE ORDERED-MERGE ARGUMENT (why sharded ≡ serial, bit for bit):
//
//   Phase 1 cuts the sorted awake list into contiguous shards. Each worker
//   runs the serial decide step, which writes only per-node-disjoint slots
//   (states_[v], gens_[v], tx_msg_[v], tx_stamp_[v]), and lists its
//   transmitters in a shard-private arena slice; per-node RNG streams make
//   the draws independent of the sharding. The merge then runs the serial
//   record step over the shards IN ORDER — and since shard s covers an
//   ascending contiguous slice, the concatenation IS the serial visit
//   order: transmitters_, trace transmit events, and
//   transmissions_per_node come out byte-identical.
//
//   Phase 2 cuts the transmitter list (already in serial order, by phase
//   1) into contiguous shards balanced by out-degree sum. Each worker runs
//   the serial scan over its transmitters into SHARD-PRIVATE reception
//   scratch. The merge walks shards in order: a listener first touched in
//   shard s joins the global touched list while merging shard s. Serial
//   first-touch order sorts listeners by the index of the first
//   transmitter that reaches them; every listener first touched in shard s
//   has that index inside shard s's contiguous range, so shard-order
//   concatenation of per-shard first-touch orders equals the serial order.
//   Arrival counts add across shards (same sum as serial), and last_sender
//   resolves by shard-order overwrite — the last shard touching v holds
//   the globally last transmitter index, exactly serial's last-write.
//   (run_options::debug_unordered_merge reverses the merge to prove the
//   chaos engine-bit-identity invariant catches a broken reduction.)
//
//   Everything downstream of the merge — the reception commit, the fault
//   delivery filter, traces, metrics, the awake-list fold — is serial code
//   operating on merged state that is byte-identical to what a serial
//   phase produced.
//
// Metrics-enabled runs pin phase 1 serial: protocols write gauges from
// on_step, and a gauge's last-write-wins value is only reproducible in
// serial order (counters and histograms would merge fine; gauges cannot).
// Phase 2 never calls protocol code, so it shards regardless.
//
// Traits requirements (see core/decay.cpp for the worked pattern):
//   struct state;                    // POD per-node protocol state, ≤ 64 B
//   void init(state*, node_id label);
//   std::optional<message> on_step(state*, const node_context&) const;
//   void on_receive(state*, const node_context&, const message&);
//   bool informed(const state&) const;
//   bool halted(const state&) const;
//   void on_restart(state*, const node_context&);
// Optionally:
//   void begin_step(std::int64_t step);  // per-step hoist, see below
// The traits object carries everything that is not per-node POD state:
// configuration fixed at bind time (the label bound, schedules, families)
// and variable-length per-node tables, indexed by label or by CSR slot
// (core/dfs_known.cpp). Each run works on its own copy of the traits, so
// such tables start fresh every run.
//
// on_step is const because it runs inside the sharded phase 1: workers
// only READ the traits object. Every other hook runs serially (setup, the
// reception commit, fault application) and may write the traits' tables.
// begin_step is called ONCE per step, serially, after the step's fault
// application and before phase 1 (and before the verify_sleepers sweep).
// Schedule arithmetic that depends only on the step number —
// phase/offset divisions, block lookups, stage probabilities — is
// identical for every node, so traits cache it here and on_step and
// on_receive read the cache.
#pragma once

#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "fault/fault_model.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/protocol.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "util/assert.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace radiocast {

namespace detail {
template <class T, class = void>
struct traits_have_begin_step : std::false_type {};
template <class T>
struct traits_have_begin_step<
    T, std::void_t<decltype(std::declval<T&>().begin_step(std::int64_t{}))>>
    : std::true_type {};
}  // namespace detail

template <class Traits>
class soa_run final {
  // The SoA layout stores per-node state as one contiguous array and
  // copies it wholesale across shard boundaries; a non-trivially-copyable
  // member would silently break that, and a fat state defeats the layout's
  // cache-density point. Shared configuration (schedules, tables) belongs
  // on the traits object, not in per-node state.
  static_assert(std::is_trivially_copyable_v<typename Traits::state>,
                "SoA Traits::state must be trivially copyable");
  static_assert(sizeof(typename Traits::state) <= 64,
                "SoA Traits::state must fit one cache line (<= 64 bytes); "
                "move shared data onto the traits object");

 public:
  soa_run(const graph& g, const Traits& traits, node_id r,
          const run_options& opts, obs::span_profiler* profiler)
      : g_(g),
        opts_(opts),
        n_(g.node_count()),
        faults_(opts.faults),
        traits_(traits),
        grain_(opts.step_shard_grain > 0 ? opts.step_shard_grain
                                         : kDefaultGrain) {
    RC_REQUIRE_MSG(g.finalized(),
                   "run_broadcast requires a finalized graph — call "
                   "graph::finalize() after building (generators already do)");
    RC_REQUIRE(r >= n_ - 1);
    RC_REQUIRE(opts.max_steps >= 1);
    resolve_labels(r);

    const auto n = static_cast<std::size_t>(n_);
    {
      // The RNG streams are identical across engines by construction:
      // root.split() is called exactly n times, in node order.
      obs::scoped_span setup_span(profiler, "setup");
      rng root(opts_.seed);
      gens_.reserve(n);
      for (node_id v = 0; v < n_; ++v) gens_.push_back(root.split());
      received_any_.assign(n, 0);
      states_.resize(n);
      for (node_id v = 0; v < n_; ++v) {
        traits_.init(&states_[idx(v)], labels_[idx(v)]);
      }
    }
    RC_CHECK_MSG(informed(0), "the source must start informed");

    if (opts_.sink != nullptr) {
      // Steady-state recording should not reallocate: reserve for the step
      // cap (a few events per step, clamped to keep pathological caps sane)
      // or the ring capacity, whichever binds.
      opts_.sink->reserve(static_cast<std::size_t>(std::min<std::int64_t>(
          opts_.max_steps * 2, std::int64_t{1} << 20)));
    }

    // Metrics: resolve every per-step series once, outside the loop. The
    // disabled path (metrics == nullptr) must cost one branch per site.
    if (opts_.metrics != nullptr) {
      sr_frontier_ = &opts_.metrics->get_series("sim.informed_frontier");
      sr_awake_ = &opts_.metrics->get_series("sim.awake");
      sr_tx_ = &opts_.metrics->get_series("sim.transmissions");
      sr_deliveries_ = &opts_.metrics->get_series("sim.deliveries");
      sr_collisions_ = &opts_.metrics->get_series("sim.collisions");
      sr_idle_ = &opts_.metrics->get_series("sim.idle_listeners");
      h_tx_per_step_ =
          &opts_.metrics->get_histogram("sim.transmitters_per_step");
      // Fault series only exist for fault-injected runs, so fault-free
      // metric exports keep their exact pre-fault shape.
      if (faults_ != nullptr) {
        sr_f_crashed_ = &opts_.metrics->get_series("sim.fault.crashed_nodes");
        sr_f_recoveries_ = &opts_.metrics->get_series("sim.fault.recoveries");
        sr_f_suppressed_ = &opts_.metrics->get_series("sim.fault.suppressed");
        sr_f_down_edges_ = &opts_.metrics->get_series("sim.fault.down_edges");
      }
    }

    result_.informed_at.assign(n, -1);
    result_.transmissions_per_node.assign(n, 0);
    result_.informed_at[0] = 0;
    rx_.resize(n);
    tx_msg_.resize(n);
    tx_stamp_.assign(n, -1);

    // The awake set: source + every node that has received at least one
    // message, minus crashed nodes. awake_.test(v) ⇔ v ∈ awake_list_
    // (sorted ascending, so phase 1 visits nodes in the same order as the
    // reference engine's 0…n−1 sweep). Maintained by both engines — the
    // reference phase 1 ignores the list but still reports sim.awake.
    awake_.assign(n, false);
    awake_.set(0);
    awake_list_.push_back(0);

    if (faults_ != nullptr) {
      crashed_.assign(n, false);
      // Per-edge down mask over the flat CSR slots: the i-th out-neighbor
      // of u is down iff down_mask_.test(out_edge_base(u) + i). Sized once
      // from the graph; undirected edges mark both directions' slots.
      down_mask_.assign(g_.out_slot_count(), false);
      faults_->begin_run({&g_, opts_.seed, opts_.max_steps});
    }

    step_threads_ = run_step_threads();
    if (step_threads_ > 1) {
      // Pool and shard arenas are run-lifetime, sized once from the graph
      // here, so sharded steps allocate no scratch of their own
      // (tests/step_alloc_test.cpp). Serial runs (step_threads_ == 1)
      // never shard and skip all of it.
      pool_ = std::make_unique<exec::thread_pool>(step_threads_ - 1);
      p1_tx_arena_.resize(n);
      p1_counts_.assign(static_cast<std::size_t>(step_threads_), 0);
      p2_scratch_.resize(static_cast<std::size_t>(step_threads_));
      for (reception_scratch& sc : p2_scratch_) sc.resize(n);
      p2_bounds_.reserve(static_cast<std::size_t>(step_threads_) + 1);
    }
  }

  // radiocast-analyze: hot-path-begin -- everything from here to the
  // matching end runs once per step (or per node per step): no
  // allocation, formatting, throwing, or stream I/O (RC_* args exempt).
  // The pool and every shard arena are built once in the constructor.

  // The one step loop. Only phase 1's visit set and phase 2's scan depend
  // on opts.engine (see the header comment).
  run_result run() {
    const bool reference = opts_.engine == step_engine::reference;
    for (std::int64_t step = 0; step < opts_.max_steps; ++step) {
      const std::int64_t collisions_before = result_.collisions;
      const std::int64_t deliveries_before = result_.deliveries;
      const std::int64_t suppressed_before = result_.suppressed_deliveries;

      if (faults_ != nullptr) apply_begin_step_faults(step);
      if constexpr (detail::traits_have_begin_step<Traits>::value) {
        traits_.begin_step(step);
      }

      transmitters_.clear();
      if (reference) {
        phase_one_all(step);
      } else {
        phase_one(step);
        if (opts_.verify_sleepers) sweep_sleepers(step);
      }
      result_.transmissions += static_cast<std::int64_t>(transmitters_.size());

      rx_.touched.clear();
      if (reference) {
        phase_two_reference(step);
      } else {
        phase_two(step);
      }

      commit_receptions(step);
      if (opts_.metrics != nullptr) {
        push_step_metrics(collisions_before, deliveries_before,
                          suppressed_before);
      }
      merge_newly_awake();
      if (step_epilogue(step)) break;
    }
    finalize_outcome();
    return std::move(result_);
  }

 private:
  // Per-listener reception state for one step: a step-stamped arrival
  // counter and the last transmitter heard, plus the listeners touched in
  // first-touch order. The engine keeps one; each phase-2 shard its own.
  struct reception_scratch {
    std::vector<std::int64_t> stamp;
    std::vector<int> arrivals;
    std::vector<node_id> last_sender;
    std::vector<node_id> touched;

    void resize(std::size_t n) {
      stamp.assign(n, -1);
      arrivals.assign(n, 0);
      last_sender.assign(n, -1);
      touched.reserve(n);
    }

    // `count` more arrivals at v this step, the last of them from `sender`.
    void add(node_id v, node_id sender, int count, std::int64_t step) {
      auto& st = stamp[idx(v)];
      if (st != step) {
        st = step;
        arrivals[idx(v)] = 0;
        touched.push_back(v);
      }
      arrivals[idx(v)] += count;
      last_sender[idx(v)] = sender;
    }
  };

  static std::size_t idx(node_id v) { return static_cast<std::size_t>(v); }

  bool informed(node_id v) const { return traits_.informed(states_[idx(v)]); }

  // Injection site 1: crash-stops, recoveries, and churn, applied at the
  // top of a step. A crash removes the node from the awake set
  // immediately, so phase 1 of this very step already skips it (matching
  // the reference engine's per-node crashed check); a recovery re-inserts
  // it in sorted position, so phase 1 of this very step already includes
  // it (matching the reference engine, which steps every non-crashed
  // node). Crashes are applied before recoveries — a node both crashed
  // and recovered in one step's buffers ends the step alive.
  void apply_begin_step_faults(std::int64_t step) {
    step_faults_buf_.clear();
    const fault::step_view view{step, &g_, &result_.informed_at, &crashed_};
    faults_->begin_step(view, &step_faults_buf_);
    for (const node_id v : step_faults_buf_.crashes) {
      RC_CHECK_MSG(v >= 0 && v < n_, "fault model crashed an unknown node");
      if (crashed_.test(idx(v))) continue;
      crashed_.set(idx(v));
      ++result_.crashed_nodes;
      if (result_.informed_at[idx(v)] == -1) {
        ++crashed_uninformed_;
      } else {
        ++crashed_informed_;
      }
      if (awake_.test(idx(v))) {
        awake_.reset(idx(v));
        --awake_count_;
        const auto it =
            std::lower_bound(awake_list_.begin(), awake_list_.end(), v);
        RC_CHECK(it != awake_list_.end() && *it == v);
        awake_list_.erase(it);
      }
      if (opts_.sink != nullptr) {
        opts_.sink->record({step, trace_event::type::crash, v, {}});
      }
    }
    for (const fault::node_recovery& r : step_faults_buf_.recoveries) {
      apply_recovery(r, step);
    }
    for (const auto& [u, v] : step_faults_buf_.edges_down) {
      if (!set_edge_down(u, v, true)) continue;
      ++result_.churned_edges;
      if (opts_.sink != nullptr) {
        message m;
        m.a = v;
        opts_.sink->record({step, trace_event::type::edge_down, u, m});
      }
    }
    for (const auto& [u, v] : step_faults_buf_.edges_up) {
      if (!set_edge_down(u, v, false)) continue;
      ++result_.churned_edges;
      if (opts_.sink != nullptr) {
        message m;
        m.a = v;
        opts_.sink->record({step, trace_event::type::edge_up, u, m});
      }
    }
  }

  // A crashed node rejoins (fault/recovery.h). Retain mode: volatile state
  // survived — re-enter the awake set iff the node was awake before the
  // outage. Amnesia mode: the protocol's restart hook re-initializes the
  // node, and an informed non-source is EVICTED from the informed set — it
  // must be re-informed by a fresh delivery. The source keeps its own
  // message across any reboot.
  void apply_recovery(const fault::node_recovery& r, std::int64_t step) {
    const node_id v = r.node;
    RC_CHECK_MSG(v >= 0 && v < n_, "fault model recovered an unknown node");
    if (!crashed_.test(idx(v))) return;  // recovering a live node is a no-op
    crashed_.reset(idx(v));
    ++result_.recoveries;
    const bool was_informed = result_.informed_at[idx(v)] != -1;
    if (was_informed) {
      --crashed_informed_;
    } else {
      --crashed_uninformed_;
    }
    if (r.amnesia) {
      node_context ctx{step, &gens_[idx(v)], opts_.metrics};
      const rng before = gens_[idx(v)];
      traits_.on_restart(&states_[idx(v)], ctx);
      RC_CHECK_MSG(gens_[idx(v)] == before,
                   "on_restart drew randomness (node " + std::to_string(v) +
                       ", step " + std::to_string(step) + ")");
      RC_CHECK_MSG(informed(v) == (v == 0),
                   "on_restart left node " + std::to_string(v) +
                       " in the wrong informed state — does the protocol's "
                       "on_restart return the node to its init state?");
      received_any_[idx(v)] = 0;
      if (was_informed && v != 0) {
        result_.informed_at[idx(v)] = -1;
        --informed_count_;
        // Full informing (if ever reached) was transient, not final.
        result_.informed_step = -1;
      }
    }
    // Awake ⇔ source or has received at least one (surviving) message.
    if ((v == 0 || received_any_[idx(v)] != 0) && !awake_.test(idx(v))) {
      awake_.set(idx(v));
      ++awake_count_;
      const auto it =
          std::lower_bound(awake_list_.begin(), awake_list_.end(), v);
      awake_list_.insert(it, v);
    }
    if (opts_.sink != nullptr) {
      message m;
      m.a = r.amnesia ? 1 : 0;
      opts_.sink->record({step, trace_event::type::recover, v, m});
    }
  }

  // Phase-1 decide step: node v's transmit decision, stored in its
  // per-node slots. Touches only v's slots, so shards may run it
  // concurrently on disjoint nodes.
  bool decide(node_id v, std::int64_t step, obs::metrics_registry* metrics) {
    node_context ctx{step, &gens_[idx(v)], metrics};
    std::optional<message> decision = traits_.on_step(&states_[idx(v)], ctx);
    if (!decision) return false;
    decision->from = labels_[idx(v)];
    tx_msg_[idx(v)] = *decision;
    tx_stamp_[idx(v)] = step;
    return true;
  }

  // A phase-1 shard's loop: decides awake_list_[lo, hi), writes the
  // transmitters to `out` in visit order, and returns how many there are.
  // It takes `step` by value so the loop keeps it in a register: a worker
  // re-reading it through the calling thread's frame shares a cache line
  // with shard 0 running there, which cost 2.5x the CPU time of a sharded
  // Decay run on a dense 2^17-node layered graph (4-core x86 host).
  std::size_t decide_slice(std::size_t lo, std::size_t hi, std::int64_t step,
                           node_id* out) {
    std::size_t count = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const node_id v = awake_list_[i];
      // Metrics are off whenever phase 1 shards; the constant lets the
      // protocol's instrumentation branches fold away.
      if (decide(v, step, nullptr)) out[count++] = v;
    }
    return count;
  }

  // Phase-1 record step: appends a decided transmitter, in visit order.
  void record(node_id v, std::int64_t step) {
    transmitters_.push_back(v);
    ++result_.transmissions_per_node[idx(v)];
    if (opts_.sink != nullptr) {
      opts_.sink->record(
          {step, trace_event::type::transmit, v, tx_msg_[idx(v)]});
    }
  }

  // Shards for `work` units of a phase this step: enough that each gets at
  // least grain_ units, at most step_threads_; 1 means run it serially.
  int shard_count(std::int64_t work) const {
    if (step_threads_ < 2 || work < 2 * grain_) return 1;
    return static_cast<int>(
        std::min<std::int64_t>(step_threads_, work / grain_));
  }

  // Runs body(s) for s = 0 … shards−1 — shard 0 inline on the calling
  // thread, the rest on the pool — and blocks until all finish. The body
  // is taken by reference and each pool task captures only (&body, s),
  // which std::function stores without allocating. thread_pool::wait_idle
  // is the synchronization edge: every write a shard makes happens-before
  // the caller's ordered merge. Bodies hand the values their loops read to
  // a member function by value (decide_slice, scan), never by reference
  // into the caller's frame.
  template <class Body>
  void run_shards(int shards, const Body& body) {
    for (int s = 1; s < shards; ++s) {
      pool_->submit([&body, s] { body(s); });
    }
    body(0);
    pool_->wait_idle();
  }

  // Phase 1 (soa): transmit decisions over the awake list — sharded when
  // there is enough work, serial otherwise (and always serial when metrics
  // are on; see the header comment).
  void phase_one(std::int64_t step) {
    const auto awake_sz = static_cast<std::int64_t>(awake_list_.size());
    const int shards = opts_.metrics == nullptr ? shard_count(awake_sz) : 1;
    if (shards < 2) {
      for (const node_id v : awake_list_) {
        if (decide(v, step, opts_.metrics)) record(v, step);
      }
      return;
    }
    run_shards(shards, [&](int s) {
      // Shard s's transmitters land at arena offset lo — its slice of the
      // awake list emits at most hi − lo of them, so slices never overlap.
      const auto lo = static_cast<std::size_t>(awake_sz * s / shards);
      const auto hi = static_cast<std::size_t>(awake_sz * (s + 1) / shards);
      p1_counts_[static_cast<std::size_t>(s)] =
          decide_slice(lo, hi, step, &p1_tx_arena_[lo]);
    });
    for (int s = 0; s < shards; ++s) {
      const auto lo = static_cast<std::size_t>(awake_sz * s / shards);
      const std::size_t count = p1_counts_[static_cast<std::size_t>(s)];
      for (std::size_t i = lo; i < lo + count; ++i) {
        record(p1_tx_arena_[i], step);
      }
    }
  }

  // Phase 1 (reference): every live node, checking the
  // no-spontaneous-transmission rule directly.
  void phase_one_all(std::int64_t step) {
    for (node_id v = 0; v < n_; ++v) {
      if (faults_ != nullptr && crashed_.test(idx(v))) {
        continue;  // injection site 2: crashed nodes never transmit
      }
      if (!decide(v, step, opts_.metrics)) continue;
      RC_CHECK_MSG(v == 0 || received_any_[idx(v)] != 0,
                   "protocol bug: node " + std::to_string(v) +
                       " transmitted spontaneously at step " +
                       std::to_string(step));
      record(v, step);
    }
  }

  // Debug sweep (run_options::verify_sleepers): the dormant-node contract
  // of sim/protocol.h, verified live. Every node the engine skipped gets an
  // on_step call anyway; transmitting, or touching its generator, is a
  // protocol bug. Word-at-a-time: a 64-node block that is entirely awake
  // or crashed is skipped with one OR + compare.
  void sweep_sleepers(std::int64_t step) {
    for (std::size_t w = 0; w < awake_.word_count(); ++w) {
      std::uint64_t skip = awake_.word(w);
      if (faults_ != nullptr) skip |= crashed_.word(w);
      if (w == 0) skip |= 1;  // the source (node 0) is never swept
      // Tail bits past n_ are zero in both masks, so ~skip raises them;
      // the v >= n_ break below retires them (bits ascend within a word).
      std::uint64_t rest = ~skip;
      while (rest != 0) {
        const auto b = static_cast<unsigned>(std::countr_zero(rest));
        rest &= rest - 1;
        const auto v = static_cast<node_id>(w * util::bitset::kWordBits + b);
        if (v >= n_) break;
        const rng before = gens_[idx(v)];
        node_context ctx{step, &gens_[idx(v)], opts_.metrics};
        const bool transmitted =
            traits_.on_step(&states_[idx(v)], ctx).has_value();
        RC_CHECK_MSG(!transmitted,
                     "dormant-node contract violated: node " +
                         std::to_string(v) +
                         " transmitted without ever receiving (step " +
                         std::to_string(step) + ")");
        RC_CHECK_MSG(gens_[idx(v)] == before,
                     "dormant-node contract violated: node " +
                         std::to_string(v) +
                         " drew randomness while dormant (step " +
                         std::to_string(step) + ")");
      }
    }
  }

  // Which injection-site-3 checks the soa scan makes, chosen per scan from
  // the step's fault state (fixed during phase 2) so the per-slot
  // down-edge mask is consulted only while an edge is actually down.
  enum class scan_faults { none, crashes, crashes_and_edges };

  // Phase-2 scan of transmitters_[lo, hi) into `rx`: the one body the
  // serial path runs on the engine's scratch and each shard on its own.
  template <scan_faults F>
  void scan_loop(std::size_t lo, std::size_t hi, std::int64_t step,
                 reception_scratch& rx) const {
    for (std::size_t i = lo; i < hi; ++i) {
      const node_id t = transmitters_[i];
      const auto row = g_.out_neighbors(t);
      const std::size_t base =
          F == scan_faults::crashes_and_edges ? g_.out_edge_base(t) : 0;
      for (std::size_t j = 0; j < row.size(); ++j) {
        const node_id v = row[j];
        if constexpr (F != scan_faults::none) {
          if (crashed_.test(idx(v))) continue;  // injection site 3
        }
        if constexpr (F == scan_faults::crashes_and_edges) {
          if (down_mask_.test(base + j)) continue;  // no signal
        }
        rx.add(v, t, 1, step);
      }
    }
  }

  void scan(std::size_t lo, std::size_t hi, std::int64_t step,
            reception_scratch& rx) const {
    if (faults_ == nullptr) {
      scan_loop<scan_faults::none>(lo, hi, step, rx);
    } else if (down_count_ == 0) {
      scan_loop<scan_faults::crashes>(lo, hi, step, rx);
    } else {
      scan_loop<scan_faults::crashes_and_edges>(lo, hi, step, rx);
    }
  }

  // Phase 2 (soa): reception scan over transmitters' neighborhoods —
  // sharded by out-degree sum when there is enough work.
  void phase_two(std::int64_t step) {
    std::int64_t work = 0;
    if (step_threads_ > 1) {
      for (const node_id t : transmitters_) {
        work += static_cast<std::int64_t>(g_.out_neighbors(t).size());
      }
    }
    const int shards = shard_count(work);
    if (shards < 2) {
      scan(0, transmitters_.size(), step, rx_);
      return;
    }

    // Greedy contiguous partition of the transmitter list, balanced by
    // out-degree sum. Deterministic: a function of transmitters_ and the
    // graph only.
    p2_bounds_.clear();
    p2_bounds_.push_back(0);
    const std::int64_t target = (work + shards - 1) / shards;
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < transmitters_.size(); ++i) {
      acc += static_cast<std::int64_t>(
          g_.out_neighbors(transmitters_[i]).size());
      if (acc >= target && i + 1 < transmitters_.size() &&
          static_cast<int>(p2_bounds_.size()) < shards) {
        p2_bounds_.push_back(i + 1);
        acc = 0;
      }
    }
    p2_bounds_.push_back(transmitters_.size());
    const auto used = static_cast<int>(p2_bounds_.size()) - 1;

    run_shards(used, [&](int s) {
      auto& sc = p2_scratch_[static_cast<std::size_t>(s)];
      sc.touched.clear();
      scan(p2_bounds_[static_cast<std::size_t>(s)],
           p2_bounds_[static_cast<std::size_t>(s) + 1], step, sc);
    });

    // Ordered merge into the engine's scratch (debug_unordered_merge
    // deliberately reverses the order so the chaos harness can prove the
    // bit-identity invariant bites).
    for (int k = 0; k < used; ++k) {
      const int s = opts_.debug_unordered_merge ? used - 1 - k : k;
      const auto& sc = p2_scratch_[static_cast<std::size_t>(s)];
      for (const node_id v : sc.touched) {
        rx_.add(v, sc.last_sender[idx(v)], sc.arrivals[idx(v)], step);
      }
    }
  }

  // Phase 2 (reference): the oracle's own scan, with the per-neighbor
  // fault branch the soa scan hoists.
  void phase_two_reference(std::int64_t step) {
    for (const node_id t : transmitters_) {
      const auto row = g_.out_neighbors(t);
      const std::size_t base = faults_ != nullptr ? g_.out_edge_base(t) : 0;
      for (std::size_t i = 0; i < row.size(); ++i) {
        const node_id v = row[i];
        if (faults_ != nullptr &&  // injection site 3: crashes + churn
            (crashed_.test(idx(v)) ||
             (down_count_ != 0 && down_mask_.test(base + i)))) {
          continue;  // no signal: neither a delivery nor a collision
        }
        rx_.add(v, t, 1, step);
      }
    }
  }

  void deliver(node_id v, node_id sender, std::int64_t step) {
    const message* delivered = &tx_msg_[idx(sender)];
    const bool was_informed = informed(v);
    node_context ctx{step, &gens_[idx(v)], opts_.metrics};
    traits_.on_receive(&states_[idx(v)], ctx, *delivered);
    received_any_[idx(v)] = 1;
    // Wake on the mask, not received_any: the source is awake from setup
    // yet receives its first reply mid-run, and must not re-enter the
    // list. Wakes join the awake list at the end of the step (they were
    // not stepped in this step's phase 1 — same as the reference engine,
    // where a node's first post-reception on_step is next step's); the
    // mask flips now so the sweep and the crash path see them awake.
    if (!awake_.test(idx(v))) {
      awake_.set(idx(v));
      newly_awake_.push_back(v);
      ++awake_count_;
    }
    ++result_.deliveries;
    if (opts_.sink != nullptr) {
      opts_.sink->record({step, trace_event::type::receive, v, *delivered});
    }
    if (!was_informed && informed(v)) {
      result_.informed_at[idx(v)] = step;
      ++informed_count_;
      if (opts_.sink != nullptr) {
        // Carry the delivering message so informed events have provenance:
        // msg.from is the node whose transmission first informed v — the
        // parent edge of the first-delivery tree (sim/trace_analysis.h).
        opts_.sink->record({step, trace_event::type::informed, v, *delivered});
      }
    }
  }

  // Resolve the listeners touched this step: collisions, then deliveries
  // (deferred through the fault filter when a model is installed).
  void commit_receptions(std::int64_t step) {
    for (const node_id t : transmitters_) {
      if (rx_.stamp[idx(t)] == step) {
        rx_.arrivals[idx(t)] = -1;  // busy transmitting; cannot receive
      }
    }
    if (faults_ == nullptr) {
      for (node_id v : rx_.touched) {
        const int count = rx_.arrivals[idx(v)];
        if (count == -1) continue;  // v transmitted this step
        if (count >= 2) {
          ++result_.collisions;
          if (opts_.sink != nullptr) {
            opts_.sink->record({step, trace_event::type::collision, v, {}});
          }
          continue;
        }
        RC_CHECK(count == 1);
        const node_id sender = rx_.last_sender[idx(v)];
        RC_CHECK(tx_stamp_[idx(sender)] == step);
        deliver(v, sender, step);
      }
      return;
    }

    // Injection site 4: unique-arrival listeners go through the model's
    // delivery filter before anything is committed, but the trace must
    // still interleave collision/receive/drop in touched order — a
    // zero-intensity model's trace is byte-identical to the fault-free
    // path's (the chaos harness holds us to that).
    for (node_id v : rx_.touched) {
      const int count = rx_.arrivals[idx(v)];
      if (count == -1 || count >= 2) continue;
      RC_CHECK(count == 1);
      const node_id sender = rx_.last_sender[idx(v)];
      RC_CHECK(tx_stamp_[idx(sender)] == step);
      pending_.push_back({v, sender, informed(v), false});
    }
    if (!pending_.empty()) {
      const fault::step_view view{step, &g_, &result_.informed_at, &crashed_};
      faults_->filter_deliveries(view, &pending_);
    }
    std::size_t next = 0;  // pending_ preserves touched order
    for (node_id v : rx_.touched) {
      const int count = rx_.arrivals[idx(v)];
      if (count == -1) continue;
      if (count >= 2) {
        ++result_.collisions;
        if (opts_.sink != nullptr) {
          opts_.sink->record({step, trace_event::type::collision, v, {}});
        }
        continue;
      }
      const fault::delivery_candidate& c = pending_[next++];
      RC_CHECK_MSG(c.listener == v,
                   "fault model must not reorder or resize the delivery list");
      if (c.suppressed) {
        ++result_.suppressed_deliveries;
        if (opts_.sink != nullptr) {
          opts_.sink->record(
              {step, trace_event::type::drop, v, tx_msg_[idx(c.sender)]});
        }
        continue;
      }
      deliver(v, c.sender, step);
    }
    pending_.clear();
  }

  // Fold this step's wakes into the sorted awake list.
  void merge_newly_awake() {
    if (newly_awake_.empty()) return;
    std::sort(newly_awake_.begin(), newly_awake_.end());
    const auto mid = static_cast<std::ptrdiff_t>(awake_list_.size());
    awake_list_.insert(awake_list_.end(), newly_awake_.begin(),
                       newly_awake_.end());
    std::inplace_merge(awake_list_.begin(), awake_list_.begin() + mid,
                       awake_list_.end());
    newly_awake_.clear();
  }

  void push_step_metrics(std::int64_t collisions_before,
                         std::int64_t deliveries_before,
                         std::int64_t suppressed_before) {
    const auto tx_count = static_cast<std::int64_t>(transmitters_.size());
    const std::int64_t step_collisions =
        result_.collisions - collisions_before;
    const std::int64_t step_deliveries =
        result_.deliveries - deliveries_before;
    sr_frontier_->push(informed_count_);
    sr_awake_->push(awake_count_);
    sr_tx_->push(tx_count);
    sr_deliveries_->push(step_deliveries);
    sr_collisions_->push(step_collisions);
    // Listeners that heard nothing at all: everyone except transmitters
    // and the listeners resolved to a delivery or an observed collision.
    sr_idle_->push(static_cast<std::int64_t>(n_) - tx_count -
                   step_deliveries - step_collisions);
    h_tx_per_step_->observe(tx_count);
    if (sr_f_crashed_ != nullptr) {
      sr_f_crashed_->push(result_.crashed_nodes);
      sr_f_recoveries_->push(result_.recoveries);
      sr_f_suppressed_->push(result_.suppressed_deliveries - suppressed_before);
      sr_f_down_edges_->push(down_count_);
    }
  }

  // Completion bookkeeping; true ⇒ stop.
  bool step_epilogue(std::int64_t step) {
    result_.steps = step + 1;
    // Crashed nodes can never become informed; completion is over the
    // survivors (crashed_uninformed_ == 0 in fault-free runs).
    const bool everyone_informed =
        informed_count_ + crashed_uninformed_ == n_;
    if (everyone_informed && result_.informed_step == -1) {
      result_.informed_step = step + 1;
    }
    // The roster must settle before completion: while the model still
    // intends to bring crashed nodes back (fault/recovery.h), a returning
    // amnesiac may yet need the message, so "every surviving node is
    // informed" is not final.
    const bool settled =
        faults_ == nullptr || faults_->pending_recoveries() == 0;
    if (everyone_informed && settled &&
        (opts_.stop == stop_condition::all_informed || all_halted())) {
      result_.completed = true;
      return true;
    }
    // Message extinction: no live node holds the message and none of the
    // crashed holders will return — with no spontaneous transmissions the
    // broadcast can make no further progress, so burn no more steps. Only
    // a crashed source produces this state (an amnesia reboot of the
    // source keeps it informed), hence outcome source_lost.
    return faults_ != nullptr && settled &&
           informed_count_ == crashed_informed_;
  }

  // Crashed nodes are exempt from both stop conditions: completion means
  // every *surviving* node is informed (resp. halted).
  bool all_halted() const {
    for (node_id v = 0; v < n_; ++v) {
      if (faults_ != nullptr && crashed_.test(idx(v))) continue;
      if (!traits_.halted(states_[idx(v)])) return false;
    }
    return true;
  }

  // radiocast-analyze: hot-path-end

  // Partition-tolerant post-mortem (run_result::outcome): a BFS over the
  // SURVIVING graph — live nodes, up edges — as it stood when the run
  // stopped, splitting "genuinely stuck" from "unreachable" timeouts.
  // Fault-free completed runs skip the BFS: every node was reached, so
  // reachable = informed_reachable = n by construction.
  void finalize_outcome() {
    if (faults_ == nullptr && result_.completed) {
      result_.reachable_nodes = n_;
      result_.informed_reachable = n_;
      result_.outcome = run_outcome::completed;
      return;
    }
    const bool source_down = faults_ != nullptr && crashed_.test(0);
    if (!source_down) {
      std::vector<std::uint8_t> seen(static_cast<std::size_t>(n_), 0);
      std::vector<node_id> queue{0};  // doubles as the visit list
      seen[0] = 1;
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const node_id u = queue[head];
        const auto row = g_.out_neighbors(u);
        const std::size_t base = faults_ != nullptr ? g_.out_edge_base(u) : 0;
        for (std::size_t i = 0; i < row.size(); ++i) {
          const node_id v = row[i];
          if (seen[idx(v)] != 0) continue;
          if (faults_ != nullptr &&
              (crashed_.test(idx(v)) ||
               (down_count_ != 0 && down_mask_.test(base + i)))) {
            continue;
          }
          seen[idx(v)] = 1;
          queue.push_back(v);
        }
      }
      result_.reachable_nodes = static_cast<std::int64_t>(queue.size());
      for (const node_id v : queue) {
        if (result_.informed_at[idx(v)] != -1) ++result_.informed_reachable;
      }
    }
    if (result_.completed) {
      result_.outcome = run_outcome::completed;
    } else if (source_down) {
      result_.outcome = run_outcome::source_lost;
    } else if (result_.informed_reachable == result_.reachable_nodes) {
      result_.outcome = run_outcome::unreachable;
    } else {
      result_.outcome = run_outcome::stuck;
    }
  }

  // Resolves the (possibly sparse) labeling and checks it: distinct, in
  // {0,…,r}, the source carrying label 0.
  void resolve_labels(node_id r) {
    labels_ = opts_.labels;
    if (labels_.empty()) {
      labels_.resize(static_cast<std::size_t>(n_));
      for (node_id v = 0; v < n_; ++v) labels_[idx(v)] = v;
    }
    RC_REQUIRE_MSG(labels_.size() == static_cast<std::size_t>(n_),
                   "labels must cover every node");
    RC_REQUIRE_MSG(labels_[0] == 0, "the source must carry label 0");
    std::vector<bool> seen(static_cast<std::size_t>(r) + 1, false);
    for (const node_id label : labels_) {
      RC_REQUIRE_MSG(label >= 0 && label <= r, "label out of range");
      RC_REQUIRE_MSG(!seen[static_cast<std::size_t>(label)],
                     "labels must be distinct");
      seen[static_cast<std::size_t>(label)] = true;
    }
  }

  // Intra-step threads for this run. The reference loop is serial, and so
  // is a graph too small for either phase ever to reach two shards of
  // grain_ work — phase 1 shards at most n awake nodes, phase 2 at most
  // every out-edge slot — which would otherwise build a pool it never
  // uses.
  int run_step_threads() const {
    if (opts_.engine == step_engine::reference) return 1;
    const auto most_work = std::max<std::int64_t>(
        n_, static_cast<std::int64_t>(g_.out_slot_count()));
    return most_work < 2 * grain_ ? 1
                                  : exec::resolve_threads(opts_.step_threads);
  }

  // Flat CSR slot of edge u→v (for the down mask). Churn events are rare
  // and every built-in model churns real edges only, so the linear row
  // scan is cheaper than keeping a hash map around.
  std::size_t edge_slot(node_id u, node_id v) const {
    const auto row = g_.out_neighbors(u);
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i] == v) return g_.out_edge_base(u) + i;
    }
    RC_CHECK_MSG(false, "fault model churned a non-edge (" +
                            std::to_string(u) + " -> " + std::to_string(v) +
                            ")");
    return 0;
  }

  // Applies one edge-churn transition to the slot mask. Returns false for
  // idempotent no-ops (downing a down edge, restoring an up one) so the
  // caller counts each LOGICAL transition once. Undirected edges flip the
  // slots of both directions together.
  bool set_edge_down(node_id u, node_id v, bool down) {
    const std::size_t s = edge_slot(u, v);
    if (down_mask_.test(s) == down) return false;
    if (down) {
      down_mask_.set(s);
      ++down_count_;
    } else {
      down_mask_.reset(s);
      --down_count_;
    }
    if (!g_.is_directed()) {
      const std::size_t t = edge_slot(v, u);
      if (down) {
        down_mask_.set(t);
      } else {
        down_mask_.reset(t);
      }
    }
    return true;
  }

  const graph& g_;
  const run_options& opts_;
  const node_id n_;
  fault::fault_model* const faults_;
  Traits traits_;
  std::vector<typename Traits::state> states_;
  std::vector<node_id> labels_;
  run_result result_;
  std::int64_t informed_count_ = 1;
  std::int64_t awake_count_ = 1;
  std::int64_t crashed_uninformed_ = 0;
  std::int64_t crashed_informed_ = 0;

  // Per-node generator pool, split from the root seed in node order. The
  // dormant-node CONTRACT (sim/protocol.h) is what makes pooling safe: a
  // dormant node's stream is never advanced, so the soa loop, which skips
  // dormant nodes, leaves gens_ byte-identical to the reference loop,
  // which steps all n.
  std::vector<rng> gens_;
  // received_any[v] ⇔ v has received ≥ 1 message since its last (re)start;
  // awake ⇔ source or received_any (and alive).
  std::vector<std::uint8_t> received_any_;

  // Awake set (see the constructor). Packed words so the sleeper sweep
  // can retire 64 nodes per OR.
  util::bitset awake_;
  std::vector<node_id> awake_list_;
  std::vector<node_id> newly_awake_;

  // This step's transmitters in visit order, their messages, and the step
  // each last transmitted (the commit's sanity check).
  std::vector<node_id> transmitters_;
  std::vector<message> tx_msg_;
  std::vector<std::int64_t> tx_stamp_;
  reception_scratch rx_;

  // Fault state, allocated only for fault-injected runs. The engine — not
  // the models — owns the crash mask and down-edge mask, so the hot loop
  // never pays a virtual call per node or per edge. Both are packed
  // words: the crash probe is one shift+AND, and the down-edge probe
  // indexes the flat CSR slot (out_edge_base(t) + i) instead of hashing
  // an (u,v) key. down_count_ tracks LOGICAL down edges (undirected edges
  // count once) for the hoisted scan and the metrics series.
  util::bitset crashed_;
  util::bitset down_mask_;
  std::int64_t down_count_ = 0;
  fault::step_faults step_faults_buf_;
  std::vector<fault::delivery_candidate> pending_;

  // Per-step series, resolved once at setup (null ⇒ metrics disabled).
  obs::series* sr_frontier_ = nullptr;
  obs::series* sr_awake_ = nullptr;
  obs::series* sr_tx_ = nullptr;
  obs::series* sr_deliveries_ = nullptr;
  obs::series* sr_collisions_ = nullptr;
  obs::series* sr_idle_ = nullptr;
  obs::histogram* h_tx_per_step_ = nullptr;
  obs::series* sr_f_crashed_ = nullptr;
  obs::series* sr_f_recoveries_ = nullptr;
  obs::series* sr_f_suppressed_ = nullptr;
  obs::series* sr_f_down_edges_ = nullptr;

  // Intra-step sharding, built once in the constructor when
  // step_threads_ > 1 (serial runs never pay for it) and reused for the
  // run's lifetime. Phase 1 shard s writes its transmitters at arena
  // offset lo(s); phase 2 shard s scans into p2_scratch_[s].
  const std::int64_t grain_;
  // Work below this many units (phase 1: awake nodes; phase 2: scanned
  // out-edges) per shard is cheaper to run serially than to fork/join.
  static constexpr std::int64_t kDefaultGrain = 4096;
  int step_threads_ = 1;
  std::unique_ptr<exec::thread_pool> pool_;
  std::vector<node_id> p1_tx_arena_;
  std::vector<std::size_t> p1_counts_;
  std::vector<reception_scratch> p2_scratch_;
  std::vector<std::size_t> p2_bounds_;
};

/// node_table over `Traits`: one state per node, label = node id.
template <class Traits>
class traits_node_table final : public node_table {
 public:
  traits_node_table(Traits traits, node_id n)
      : traits_(std::move(traits)), states_(static_cast<std::size_t>(n)) {
    for (node_id v = 0; v < n; ++v) reset(v);
  }

  void begin_step(std::int64_t step) override {
    if constexpr (detail::traits_have_begin_step<Traits>::value) {
      traits_.begin_step(step);
    }
  }
  std::optional<message> on_step(node_id v,
                                 const node_context& ctx) override {
    return traits_.on_step(&states_[static_cast<std::size_t>(v)], ctx);
  }
  void on_receive(node_id v, const node_context& ctx,
                  const message& m) override {
    traits_.on_receive(&states_[static_cast<std::size_t>(v)], ctx, m);
  }
  void reset(node_id v) override {
    traits_.init(&states_[static_cast<std::size_t>(v)], v);
  }

 private:
  Traits traits_;
  std::vector<typename Traits::state> states_;
};

/// `Traits` bound to label bound r: the one implementation of
/// bound_protocol.
template <class Traits>
class traits_binding final : public bound_protocol {
 public:
  traits_binding(Traits traits, node_id r)
      : traits_(std::move(traits)), r_(r) {}

  // The "run_broadcast" span is already open (run_broadcast_with_r), so
  // this opens only setup (inside soa_run) and step_loop.
  run_result run(const graph& g, const run_options& opts) const override {
    obs::span_profiler* profiler =
        opts.profiler != nullptr ? opts.profiler : obs::global_profiler();
    soa_run<Traits> engine(g, traits_, r_, opts, profiler);
    obs::scoped_span loop_span(profiler, "step_loop");
    return engine.run();
  }
  std::unique_ptr<node_table> make_table(node_id n) const override {
    RC_REQUIRE(n >= 1 && n - 1 <= r_);
    return std::make_unique<traits_node_table<Traits>>(traits_, n);
  }

 private:
  Traits traits_;
  node_id r_;
};

/// What every protocol::bind returns: its traits, configured for r.
template <class Traits>
std::unique_ptr<const bound_protocol> bind_traits(Traits traits, node_id r) {
  return std::make_unique<const traits_binding<Traits>>(std::move(traits), r);
}

}  // namespace radiocast
