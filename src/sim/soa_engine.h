// Struct-of-arrays step engine: where every protocol's traits run.
//
// A protocol is defined once, as a traits struct (contract below), and
// reaches the engines through bind_traits (end of this file). soa_run
// instantiates the step loop for those traits:
//
//   * STATE: per-node protocol state is one contiguous std::vector of a POD
//     `Traits::state` (plus the flat awake/crashed/received masks and the
//     per-node RNG pool the shared core already keeps as arrays) — phase 1
//     is a linear walk over dense arrays;
//   * DISPATCH: the step loop is templated on the protocol's Traits, so
//     traits.on_step inlines into the loop body. Runtime protocol selection
//     happens ONCE per run (one virtual bound_protocol::run call), not per
//     step;
//   * FRONTIER: phase 1 visits only the awake set — O(|awake|) per step,
//     bit-identical to stepping all n by the dormant-node contract
//     (sim/protocol.h);
//   * SHARDING: phase 1 (transmit decisions) and phase 2 (reception scan)
//     of a SINGLE step can fan out over an exec::thread_pool
//     (run_options::step_threads) and still produce bit-identical results.
//
// With run_options::engine == step_engine::reference the same soa_run runs
// the shared core's run_reference() loop instead (sim/engine_core.h): all n
// nodes every step, serially — the differential oracle for the loop.
//
// THE ORDERED-MERGE ARGUMENT (why sharded ≡ serial, bit for bit):
//
//   Phase 1 cuts the sorted awake list into contiguous shards. Each worker
//   writes only per-node-disjoint slots (states_[v], gens_[v], tx_msg_[v],
//   tx_stamp_[v]) plus a shard-private transmitter list; per-node RNG
//   streams make the draws independent of the sharding. The merge walks
//   shards IN ORDER appending transmitters — and since shard s covers an
//   ascending contiguous slice, the concatenation IS the serial visit
//   order: transmitters_, trace transmit events, and transmissions_per_node
//   come out byte-identical.
//
//   Phase 2 cuts the transmitter list (already in serial order, by phase
//   1) into contiguous shards balanced by out-degree sum. Each worker
//   scans its transmitters' neighborhoods into SHARD-PRIVATE scratch
//   (stamp/arrivals/last_sender/touched). The merge walks shards in order:
//   a listener first touched in shard s joins the global touched list
//   while merging shard s. Serial first-touch order sorts listeners by the
//   index of the first transmitter that reaches them; every listener first
//   touched in shard s has that index inside shard s's contiguous range,
//   so shard-order concatenation of per-shard first-touch orders equals
//   the serial order. Arrival counts add across shards (same sum as
//   serial), and last_sender resolves by shard-order overwrite — the last
//   shard touching v holds the globally last transmitter index, exactly
//   serial's last-write. (run_options::debug_unordered_merge reverses the
//   merge to prove the chaos engine-bit-identity invariant catches a
//   broken reduction.)
//
//   Everything downstream of the merge — commit_receptions, the fault
//   delivery filter, traces, metrics, the awake-list fold — is the shared
//   serial code in sim/engine_core.h, operating on merged state that is
//   byte-identical to what a serial phase produced.
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
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/sharding.h"
#include "exec/thread_pool.h"
#include "sim/engine_core.h"

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
class soa_run final : public detail::run_base<soa_run<Traits>> {
  using base = detail::run_base<soa_run<Traits>>;
  friend base;

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
      : base(g, r, opts),
        traits_(traits),
        grain_(opts.step_shard_grain > 0 ? opts.step_shard_grain
                                         : kDefaultGrain),
        step_threads_(run_step_threads(g, opts, grain_)) {
    this->finish_setup(profiler);
    if (step_threads_ > 1) {
      // Pool and shard arenas are run-lifetime, sized once from the graph
      // here (still inside the "setup" span's wall-clock): the sharded
      // step loop below never allocates. Serial runs (step_threads == 1)
      // never shard and skip all of it.
      pool_ = std::make_unique<exec::thread_pool>(step_threads_ - 1);
      const auto n = static_cast<std::size_t>(this->n_);
      p1_tx_arena_.resize(n);
      p1_counts_.assign(static_cast<std::size_t>(step_threads_), 0);
      p2_scratch_.resize(static_cast<std::size_t>(step_threads_));
      for (shard_scratch& sc : p2_scratch_) {
        sc.stamp.assign(n, -1);
        sc.arrivals.assign(n, 0);
        sc.last_sender.assign(n, -1);
        sc.touched.reserve(n);
      }
      p2_bounds_.reserve(static_cast<std::size_t>(step_threads_) + 1);
    }
  }

  using base::run;

 private:
  // Work below this many units (phase 1: awake nodes; phase 2: scanned
  // out-edges) per shard is cheaper to run serially than to fork/join.
  static constexpr std::int64_t kDefaultGrain = 4096;

  using base::idx;

  // Intra-step threads for this run. The reference loop is serial, and so
  // is a graph too small for either phase ever to reach two shards of
  // `grain` work — phase 1 shards at most n awake nodes, phase 2 at most
  // every out-edge slot — which would otherwise build a pool it never
  // uses.
  static int run_step_threads(const graph& g, const run_options& opts,
                              std::int64_t grain) {
    if (opts.engine == step_engine::reference) return 1;
    const int threads = exec::resolve_threads(opts.step_threads);
    const auto most_work = std::max<std::int64_t>(
        g.node_count(), static_cast<std::int64_t>(g.out_slot_count()));
    return most_work < 2 * grain ? 1 : threads;
  }

  void init_nodes() {
    states_.resize(static_cast<std::size_t>(this->n_));
    for (node_id v = 0; v < this->n_; ++v) {
      traits_.init(&states_[idx(v)], this->labels_[idx(v)]);
    }
  }

  void proto_begin_step(std::int64_t step) {
    if constexpr (detail::traits_have_begin_step<Traits>::value) {
      traits_.begin_step(step);
    }
  }
  std::optional<message> proto_step(node_id v, const node_context& ctx) {
    return traits_.on_step(&states_[idx(v)], ctx);
  }
  void proto_receive(node_id v, const node_context& ctx, const message& m) {
    traits_.on_receive(&states_[idx(v)], ctx, m);
  }
  bool proto_informed(node_id v) { return traits_.informed(states_[idx(v)]); }
  bool proto_halted(node_id v) { return traits_.halted(states_[idx(v)]); }
  void proto_restart(node_id v, const node_context& ctx) {
    traits_.on_restart(&states_[idx(v)], ctx);
  }

  // radiocast-analyze: hot-path-begin -- the sharded step loop; no
  // allocation, formatting, throwing, or stream I/O (RC_* args exempt).
  // The pool and every shard arena are built once in the constructor.

  // Phase 1: transmit decisions over the awake list — sharded when there
  // is enough work, serial otherwise (and always serial when metrics are
  // on; see the header comment). Both paths are bit-identical.
  void phase_one(std::int64_t step) {
    const auto awake_sz = static_cast<std::int64_t>(this->awake_list_.size());
    int shards = 1;
    if (step_threads_ > 1 && this->opts_.metrics == nullptr &&
        awake_sz >= 2 * grain_) {
      shards = static_cast<int>(
          std::min<std::int64_t>(step_threads_, awake_sz / grain_));
    }
    if (shards < 2) {
      for (const node_id v : this->awake_list_) {
        this->template step_node</*check_spontaneous=*/false>(v, step);
      }
      return;
    }
    exec::run_shards(*pool_, shards, [&](int s) {
      const auto lo =
          static_cast<std::size_t>(awake_sz * s / shards);
      const auto hi =
          static_cast<std::size_t>(awake_sz * (s + 1) / shards);
      // Shard s's transmitters land at arena offset lo — its slice of the
      // awake list emits at most hi − lo of them, so slices never overlap.
      std::size_t count = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        const node_id v = this->awake_list_[i];
        // ctx.metrics is null by the gate above — identical to what the
        // serial path would pass.
        node_context ctx{step, &this->gens_[idx(v)], nullptr};
        std::optional<message> decision = traits_.on_step(&states_[idx(v)], ctx);
        if (!decision) continue;
        decision->from = this->labels_[idx(v)];
        this->tx_msg_[idx(v)] = *decision;
        this->tx_stamp_[idx(v)] = step;
        p1_tx_arena_[lo + count] = v;
        ++count;
      }
      p1_counts_[static_cast<std::size_t>(s)] = count;
    });
    // Ordered merge: shard s covered an ascending contiguous slice of the
    // awake list, so shard-order concatenation is the serial visit order —
    // transmitters_, the energy counts, and the trace all match serial.
    for (int s = 0; s < shards; ++s) {
      const auto lo = static_cast<std::size_t>(awake_sz * s / shards);
      const std::size_t count = p1_counts_[static_cast<std::size_t>(s)];
      for (std::size_t i = 0; i < count; ++i) {
        const node_id v = p1_tx_arena_[lo + i];
        this->transmitters_.push_back(v);
        ++this->result_.transmissions_per_node[idx(v)];
        if (this->opts_.sink != nullptr) {
          this->opts_.sink->record(
              {step, trace_event::type::transmit, v, this->tx_msg_[idx(v)]});
        }
      }
    }
  }

  // Phase 2: reception scan over transmitters' neighborhoods — sharded by
  // out-degree sum when there is enough work. See the header comment for
  // the ordered-merge bit-identity argument.
  void phase_two(std::int64_t step) {
    std::int64_t work = 0;
    int shards = 1;
    if (step_threads_ > 1 && !this->transmitters_.empty()) {
      for (const node_id t : this->transmitters_) {
        work += static_cast<std::int64_t>(this->g_.out_neighbors(t).size());
      }
      if (work >= 2 * grain_) {
        shards = static_cast<int>(
            std::min<std::int64_t>(step_threads_, work / grain_));
      }
    }
    if (shards < 2) {
      this->phase_two_hoisted(step);
      return;
    }

    // Greedy contiguous partition of the transmitter list, balanced by
    // out-degree sum. Deterministic: a function of transmitters_ and the
    // graph only.
    p2_bounds_.clear();
    p2_bounds_.push_back(0);
    const std::int64_t target = (work + shards - 1) / shards;
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < this->transmitters_.size(); ++i) {
      acc += static_cast<std::int64_t>(
          this->g_.out_neighbors(this->transmitters_[i]).size());
      if (acc >= target && i + 1 < this->transmitters_.size() &&
          static_cast<int>(p2_bounds_.size()) < shards) {
        p2_bounds_.push_back(i + 1);
        acc = 0;
      }
    }
    p2_bounds_.push_back(this->transmitters_.size());
    const auto used = static_cast<int>(p2_bounds_.size()) - 1;

    // Select the fault branch once per step, like phase_two_hoisted.
    const int mode = this->faults_ == nullptr
                         ? 0
                         : (this->down_count_ == 0 ? 1 : 2);
    exec::run_shards(*pool_, used, [&](int s) {
      // used ≤ shards ≤ step_threads_, so the constructor-built scratch
      // set always covers s; nothing here allocates.
      auto& sc = p2_scratch_[static_cast<std::size_t>(s)];
      sc.touched.clear();
      const auto bump = [&sc, step](node_id v, node_id t) {
        auto& st = sc.stamp[idx(v)];
        if (st != step) {
          st = step;
          sc.arrivals[idx(v)] = 0;
          sc.touched.push_back(v);
        }
        ++sc.arrivals[idx(v)];
        sc.last_sender[idx(v)] = t;
      };
      const std::size_t lo = p2_bounds_[static_cast<std::size_t>(s)];
      const std::size_t hi = p2_bounds_[static_cast<std::size_t>(s) + 1];
      if (mode == 0) {
        for (std::size_t i = lo; i < hi; ++i) {
          const node_id t = this->transmitters_[i];
          for (const node_id v : this->g_.out_neighbors(t)) bump(v, t);
        }
      } else if (mode == 1) {
        for (std::size_t i = lo; i < hi; ++i) {
          const node_id t = this->transmitters_[i];
          for (const node_id v : this->g_.out_neighbors(t)) {
            if (this->crashed_.test(idx(v))) continue;  // injection site 3
            bump(v, t);
          }
        }
      } else {
        for (std::size_t i = lo; i < hi; ++i) {
          const node_id t = this->transmitters_[i];
          const auto row = this->g_.out_neighbors(t);
          const std::size_t slot0 = this->g_.out_edge_base(t);
          for (std::size_t j = 0; j < row.size(); ++j) {
            const node_id v = row[j];
            if (this->crashed_.test(idx(v)) ||
                this->down_mask_.test(slot0 + j)) {
              continue;  // no signal: neither a delivery nor a collision
            }
            bump(v, t);
          }
        }
      }
    });

    // Ordered merge into the global reception scratch (see header comment;
    // debug_unordered_merge deliberately reverses the order so the chaos
    // harness can prove the bit-identity invariant bites).
    for (int k = 0; k < used; ++k) {
      const int s = this->opts_.debug_unordered_merge ? used - 1 - k : k;
      const auto& sc = p2_scratch_[static_cast<std::size_t>(s)];
      for (const node_id v : sc.touched) {
        auto& st = this->stamp_[idx(v)];
        if (st != step) {
          st = step;
          this->arrivals_[idx(v)] = 0;
          this->touched_.push_back(v);
        }
        this->arrivals_[idx(v)] += sc.arrivals[idx(v)];
        this->last_sender_[idx(v)] = sc.last_sender[idx(v)];
      }
    }
  }

  // The soa step loop: phase 1 over the awake list, both phases
  // shardable. step_engine::reference runs the shared all-n loop instead.
  void run_engine() {
    if (this->opts_.engine == step_engine::reference) {
      this->run_reference();
      return;
    }
    for (std::int64_t step = 0; step < this->opts_.max_steps; ++step) {
      const std::int64_t collisions_before = this->result_.collisions;
      const std::int64_t deliveries_before = this->result_.deliveries;
      const std::int64_t suppressed_before =
          this->result_.suppressed_deliveries;

      if (this->faults_ != nullptr) this->apply_begin_step_faults(step);

      proto_begin_step(step);
      this->transmitters_.clear();
      phase_one(step);
      if (this->opts_.verify_sleepers) this->sweep_sleepers(step);
      this->result_.transmissions +=
          static_cast<std::int64_t>(this->transmitters_.size());

      this->touched_.clear();
      phase_two(step);

      this->commit_receptions(step);
      if (this->opts_.metrics != nullptr) {
        this->push_step_metrics(collisions_before, deliveries_before,
                                suppressed_before);
      }
      this->merge_newly_awake();
      if (this->step_epilogue(step)) break;
    }
  }

  // radiocast-analyze: hot-path-end

  Traits traits_;
  std::vector<typename Traits::state> states_;
  const std::int64_t grain_;
  const int step_threads_;

  // Intra-step pool and shard arenas, built once in the constructor when
  // step_threads_ > 1 (serial runs never pay for them) and reused for the
  // run's lifetime — the step loop itself never allocates. Phase 1 shard s
  // writes its transmitters at arena offset lo(s): its awake-list slice is
  // [lo, hi) so slices cannot overlap, and the ordered merge reads them
  // back in shard order.
  std::unique_ptr<exec::thread_pool> pool_;
  std::vector<node_id> p1_tx_arena_;
  std::vector<std::size_t> p1_counts_;
  struct shard_scratch {
    std::vector<std::int64_t> stamp;
    std::vector<int> arrivals;
    std::vector<node_id> last_sender;
    std::vector<node_id> touched;
  };
  std::vector<shard_scratch> p2_scratch_;
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
