#include "adversary/lower_bound_builder.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "adversary/jamming.h"
#include "util/assert.h"
#include "util/math.h"

namespace radiocast {

namespace {

/// The whole construction state: the protocol's nodes for every label plus
/// the partially built topology.
class builder {
 public:
  builder(const protocol& proto, node_id n, int d,
          const adversary_options& options)
      : n_(n), d_(d), options_(options) {
    RC_REQUIRE_MSG(proto.deterministic(),
                   "the lower-bound adversary needs a deterministic protocol");
    RC_REQUIRE_MSG(d >= 4 && d % 2 == 0, "need even D ≥ 4");
    spine_count_ = d / 2;
    k_ = static_cast<int>(n / (4 * d));
    if (k_ % 2 == 1) --k_;  // the paper assumes even k
    RC_REQUIRE_MSG(k_ >= 4, "need n ≥ 16·D so that k = ⌊n/4D⌋ ≥ 4");

    nodes_ = proto.bind(n - 1)->make_table(n);
    gens_.reserve(static_cast<std::size_t>(n));
    informed_.assign(static_cast<std::size_t>(n), false);
    tx_stamp_.assign(static_cast<std::size_t>(n), -1);
    tx_msg_.resize(static_cast<std::size_t>(n));
    odd_layer_of_.assign(static_cast<std::size_t>(n), -1);
    in_star_.assign(static_cast<std::size_t>(n), false);
    for (node_id v = 0; v < n; ++v) {
      gens_.emplace_back(std::uint64_t{0x5eed0000} +
                         static_cast<std::uint64_t>(v));
    }
    informed_[0] = true;  // the source

    for (node_id v = spine_count_; v < n; ++v) pool_.push_back(v);

    // s = ⌊ k·log₂(n/4) / (8·log₂ k) ⌋, at least 1.
    const double s = std::floor(static_cast<double>(k_) *
                                std::log2(static_cast<double>(n) / 4.0) /
                                (8.0 * std::log2(static_cast<double>(k_))));
    jam_steps_ = std::max<std::int64_t>(1, static_cast<std::int64_t>(s));
  }

  adversarial_network run() {
    adversarial_network out;
    out.d = d_;
    out.k = k_;
    out.jam_steps_per_stage = jam_steps_;
    out.forced_steps = (spine_count_ - 1) * jam_steps_;
    out.odd_layers.resize(static_cast<std::size_t>(spine_count_));
    out.star_layers.resize(static_cast<std::size_t>(spine_count_));
    out.spine_first_tx.assign(static_cast<std::size_t>(spine_count_), -1);

    for (int i = 0; i < spine_count_; ++i) {
      // Wait for spine i's first transmission (stage 0: the source's).
      if (!stuck_) {
        const std::int64_t t_i = wait_for_spine_tx(i);
        if (t_i < 0) {
          stuck_ = true;
        } else {
          out.spine_first_tx[static_cast<std::size_t>(i)] = t_i;
        }
      }

      if (stuck_) {
        // Fill the layer arbitrarily to keep the topology well-formed.
        fill_layer_arbitrarily(i, out);
        continue;
      }

      // Part 2: the jammed window of s steps.
      jamming jam(pool_, k_);
      for (std::int64_t l = 0; l < jam_steps_; ++l) {
        do_step(i, &jam);
      }

      // Part 3: fix L_{2i+1} = X' ∪ X*, L* = X*; reset the losers.
      const jamming::layer_choice choice = jam.pick_layer();
      commit_layer(i, choice.layer, choice.star, out);
    }

    // All leftover candidates form L_D, attached to every node of L*_{D−1}.
    out.last_layer = pool_;
    RC_CHECK_MSG(!out.last_layer.empty(),
                 "no nodes left for the final layer; increase n");
    out.stuck = stuck_;
    out.g = materialize(out);
    return out;
  }

 private:
  // ---- simulation ----

  bool transmitted(node_id v) const {
    return tx_stamp_[static_cast<std::size_t>(v)] == step_;
  }

  /// Runs one synchronous step. In jam mode (jam != nullptr), `spine` is
  /// the node whose next layer is under construction: candidate
  /// transmissions are answered by the jamming function, and the spine's
  /// transmissions reach all non-transmitting candidates. In watch mode
  /// (jam == nullptr), `spine` is the node whose first transmission we are
  /// waiting for; returns true the step it transmits.
  bool do_step(int spine, jamming* jam) {
    // Phase 1: decisions of every informed node.
    nodes_->begin_step(step_);
    transmitters_.clear();
    for (node_id v = 0; v < n_; ++v) {
      if (!informed_[static_cast<std::size_t>(v)]) continue;
      node_context ctx{step_, &gens_[static_cast<std::size_t>(v)]};
      auto decision = nodes_->on_step(v, ctx);
      if (!decision) continue;
      decision->from = v;
      tx_stamp_[static_cast<std::size_t>(v)] = step_;
      tx_msg_[static_cast<std::size_t>(v)] = *decision;
      transmitters_.push_back(v);
      if (first_tx_.size() <= static_cast<std::size_t>(v)) {
        first_tx_.resize(static_cast<std::size_t>(n_), -1);
      }
      if (first_tx_[static_cast<std::size_t>(v)] < 0) {
        first_tx_[static_cast<std::size_t>(v)] = step_;
      }
    }

    const bool spine_tx = transmitted(spine);

    // Phase 2a (jam mode): candidates — jamming + hearing the spine.
    if (jam != nullptr) {
      y_.clear();
      for (node_id c : pool_) {
        if (transmitted(c)) y_.push_back(c);
      }
      const jamming::outcome answer = jam->step(y_);

      // What spine `spine` hears: combine the jammed answer for the layer
      // under construction with its built in-neighborhood below.
      if (!transmitted(spine)) {
        const std::optional<node_id> below = unique_below_transmitter(spine);
        const bool below_any = any_below_transmitter(spine);
        if (answer.what == jamming::outcome::kind::silence && below &&
            below_count_ == 1) {
          deliver(spine, *below);
        } else if (answer.what == jamming::outcome::kind::unique &&
                   !below_any) {
          deliver(spine, answer.unique);
        }
      }

      // Candidates hear the spine when it transmits and they do not.
      if (spine_tx) {
        for (node_id c : pool_) {
          if (!transmitted(c)) deliver(c, spine);
        }
      }
    }

    // Phase 2b: built part of the network, real radio semantics.
    deliver_built(jam != nullptr ? spine : -1);

    // Watch mode: the watched spine's transmission also reaches every
    // candidate (they are its potential next layer).
    if (jam == nullptr && spine_tx) {
      for (node_id c : pool_) {
        if (!transmitted(c)) deliver(c, spine);
      }
    }

    ++step_;
    return spine_tx;
  }

  /// Deliveries over the constructed topology. `jam_spine` ≥ 0 marks the
  /// spine whose reception is governed by the jamming answer this step
  /// (already handled); −1 when none.
  void deliver_built(int jam_spine) {
    const int built = built_layers_;  // odd layers 0 … built−1 exist
    // Spine nodes.
    for (int j = 0; j < spine_count_; ++j) {
      const auto v = static_cast<node_id>(j);
      if (transmitted(v)) continue;
      if (j == jam_spine) continue;  // handled by the jamming combination
      int count = 0;
      node_id sender = -1;
      if (j >= 1 && j - 1 < built) {
        for (node_id w : star_[static_cast<std::size_t>(j - 1)]) {
          if (transmitted(w)) {
            ++count;
            sender = w;
          }
        }
      }
      if (j < built) {
        for (node_id w : layers_[static_cast<std::size_t>(j)]) {
          if (transmitted(w)) {
            ++count;
            sender = w;
          }
        }
      }
      if (count == 1) deliver(v, sender);
    }
    // Odd-layer members: neighbors are spine i (below) and spine i+1 when
    // in L* (the final layer's upper side, L_D, is attached after the
    // construction and never simulated here).
    for (int i = 0; i < built; ++i) {
      for (node_id w : layers_[static_cast<std::size_t>(i)]) {
        if (transmitted(w)) continue;
        int count = 0;
        node_id sender = -1;
        const auto below = static_cast<node_id>(i);
        if (transmitted(below)) {
          ++count;
          sender = below;
        }
        if (in_star_[static_cast<std::size_t>(w)] &&
            i + 1 < spine_count_) {
          const auto above = static_cast<node_id>(i + 1);
          if (transmitted(above)) {
            ++count;
            sender = above;
          }
        }
        if (count == 1) deliver(w, sender);
      }
    }
  }

  void deliver(node_id to, node_id sender) {
    RC_CHECK_MSG(transmitted(sender),
                 "delivery from a node that did not transmit this step");
    node_context ctx{step_, &gens_[static_cast<std::size_t>(to)]};
    nodes_->on_receive(to, ctx, tx_msg_[static_cast<std::size_t>(sender)]);
    informed_[static_cast<std::size_t>(to)] = true;
  }

  std::optional<node_id> unique_below_transmitter(int spine) {
    below_count_ = 0;
    node_id found = -1;
    if (spine >= 1 && spine - 1 < built_layers_) {
      for (node_id w : star_[static_cast<std::size_t>(spine - 1)]) {
        if (transmitted(w)) {
          ++below_count_;
          found = w;
        }
      }
    }
    return below_count_ >= 1 ? std::optional<node_id>(found) : std::nullopt;
  }

  bool any_below_transmitter(int spine) {
    // below_count_ was just refreshed by unique_below_transmitter.
    (void)spine;
    return below_count_ >= 1;
  }

  /// Waits (simulating with real semantics on the built part) until spine
  /// node i transmits for the first time. Returns its step, or −1 on cap.
  std::int64_t wait_for_spine_tx(int i) {
    const auto v = static_cast<node_id>(i);
    if (first_tx_.size() > static_cast<std::size_t>(v) &&
        first_tx_[static_cast<std::size_t>(v)] >= 0) {
      // Already transmitted during an earlier phase of the simulation.
      return first_tx_[static_cast<std::size_t>(v)];
    }
    for (std::int64_t waited = 0; waited < options_.stage_wait_cap;
         ++waited) {
      if (do_step(i, nullptr)) return step_ - 1;
    }
    return -1;
  }

  // ---- topology bookkeeping ----

  void commit_layer(int i, const std::vector<node_id>& layer,
                    const std::vector<node_id>& star,
                    adversarial_network& out) {
    layers_.push_back(layer);
    star_.push_back(star);
    built_layers_ = static_cast<int>(layers_.size());
    out.odd_layers[static_cast<std::size_t>(i)] = layer;
    out.star_layers[static_cast<std::size_t>(i)] = star;
    for (node_id w : layer) {
      odd_layer_of_[static_cast<std::size_t>(w)] = i;
    }
    for (node_id w : star) in_star_[static_cast<std::size_t>(w)] = true;

    // Remove the layer from the pool and reset every remaining candidate
    // to a fresh (empty-history) instance — the paper's point 6.
    std::vector<bool> chosen(static_cast<std::size_t>(n_), false);
    for (node_id w : layer) chosen[static_cast<std::size_t>(w)] = true;
    std::vector<node_id> next_pool;
    next_pool.reserve(pool_.size());
    for (node_id c : pool_) {
      if (chosen[static_cast<std::size_t>(c)]) continue;
      next_pool.push_back(c);
      nodes_->reset(c);
      gens_[static_cast<std::size_t>(c)] =
          rng(std::uint64_t{0x5eed0000} + static_cast<std::uint64_t>(c));
      informed_[static_cast<std::size_t>(c)] = false;
      if (first_tx_.size() > static_cast<std::size_t>(c)) {
        first_tx_[static_cast<std::size_t>(c)] = -1;
      }
    }
    pool_ = std::move(next_pool);
  }

  void fill_layer_arbitrarily(int i, adversarial_network& out) {
    const std::size_t want =
        std::min<std::size_t>(pool_.size() - 1,
                              static_cast<std::size_t>(2 * k_ - 2));
    RC_CHECK_MSG(want >= 2, "pool exhausted while filling layers");
    std::vector<node_id> layer(pool_.begin(),
                               pool_.begin() + static_cast<std::ptrdiff_t>(
                                                   want));
    std::vector<node_id> star(layer.begin(), layer.begin() + 2);
    commit_layer(i, layer, star, out);
  }

  graph materialize(const adversarial_network& out) const {
    graph g = graph::undirected(n_);
    for (int i = 0; i < spine_count_; ++i) {
      const auto spine = static_cast<node_id>(i);
      for (node_id w : out.odd_layers[static_cast<std::size_t>(i)]) {
        g.add_edge_unchecked(spine, w);
      }
      if (i + 1 < spine_count_) {
        for (node_id w : out.star_layers[static_cast<std::size_t>(i)]) {
          g.add_edge_unchecked(w, static_cast<node_id>(i + 1));
        }
      }
    }
    for (node_id w : out.star_layers.back()) {
      for (node_id u : out.last_layer) {
        g.add_edge_unchecked(w, u);
      }
    }
    g.finalize();
    return g;
  }

  node_id n_;
  int d_;
  adversary_options options_;
  int spine_count_ = 0;
  int k_ = 0;
  std::int64_t jam_steps_ = 0;

  std::unique_ptr<node_table> nodes_;
  std::vector<rng> gens_;
  std::vector<bool> informed_;
  std::vector<std::int64_t> tx_stamp_;
  std::vector<message> tx_msg_;
  std::vector<std::int64_t> first_tx_;
  std::vector<node_id> transmitters_;
  std::vector<node_id> y_;
  int below_count_ = 0;

  std::vector<node_id> pool_;
  std::vector<std::vector<node_id>> layers_;  // built odd layers
  std::vector<std::vector<node_id>> star_;
  std::vector<int> odd_layer_of_;
  std::vector<bool> in_star_;
  int built_layers_ = 0;

  std::int64_t step_ = 0;
  bool stuck_ = false;
};

}  // namespace

adversarial_network build_adversarial_network(const protocol& proto,
                                              node_id n, int d,
                                              const adversary_options& options) {
  RC_REQUIRE(n >= 2);
  builder b(proto, n, d, options);
  return b.run();
}

}  // namespace radiocast
