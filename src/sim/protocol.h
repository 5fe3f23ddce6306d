// Protocol interface: how broadcasting algorithms plug into the radio model.
//
// The paper models an algorithm as an action function π(v, H_{k−1}(v)) — the
// decision of node v at step k depends only on v's label and the messages it
// has received so far. Every protocol defines that function exactly once, as
// a TRAITS struct (the contract is spelled out in sim/soa_engine.h): a POD
// per-node `state`, plus `init`, `on_step` (the transmit decision for the
// current step), `on_receive` (extends the history), `informed`, `halted`
// and `on_restart`. A protocol object binds its traits to a label bound r
// (protocol::bind, via bind_traits in sim/soa_engine.h); the step engines
// and the lower-bound adversary all run that one definition.
//
// Knowledge model (paper §1.3): a node knows a priori only its own label and
// the bound r on labels. The traits receive r when they are bound; a
// procedure parameterized by D (Randomized-Broadcasting(D)) takes D as a
// construction argument of its protocol object (see kp_randomized).
//
// CONTRACT (dormant nodes are pure no-ops): a node other than the source
// that has never received a message MUST, from on_step, (a) return
// std::nullopt — no spontaneous transmissions, (b) draw NOTHING from
// ctx.gen, and (c) mutate no state. Equivalently: an uninformed node's
// behavior is independent of time, and calling — or not calling — on_step
// on it is unobservable. The soa engine relies on this to skip dormant
// nodes entirely (docs/PERFORMANCE.md): phase 1 iterates only the awake set
// (source + every node that has received at least one message), which is
// bit-identical to stepping all n nodes exactly because dormant on_step is
// a no-op. The contract is enforced three ways: the reference engine's
// spontaneous-transmission check, the run_options::verify_sleepers sweep
// (calls dormant on_step and RC_CHECKs nullopt + untouched rng state), and
// the reference-vs-soa differential suite (any dormant state mutation
// diverges there). The lower-bound adversary also relies on it to keep
// dormant candidate nodes fresh.
//
// POOLED PER-NODE RNG (the CONTRACT's second beneficiary): both engines
// draw per-node randomness from one contiguous pool, `gens_` in
// sim/soa_engine.h, split from the root seed in node order 0…n−1. This is
// only sound BECAUSE of the dormant-node contract: a dormant node never
// advances its pool slot, so the soa engine, which skips dormant nodes,
// leaves the pool byte-identical to the reference engine, which steps all
// n, and the sharded soa engine can hand each intra-step shard its
// contiguous slice of the pool — per-shard RNG streams with no cross-shard
// draws — while still producing the serial streams exactly. A protocol
// that drew from ctx.gen while dormant would break pool identity across
// engines AND make shard boundaries observable; verify_sleepers exists to
// catch exactly that before the differential suite has to.
//
// AMNESIA RESTART (crash-recovery fault model, src/fault/recovery.h):
// on_restart MUST return the node to exactly the state init produced for
// its label, and MUST NOT draw from ctx.gen. After it the source (label 0)
// is informed again — the message is its own — and every other node is
// uninformed and dormant until re-informed by a fresh delivery. The
// simulator RC_CHECKs both after every amnesia restart.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "sim/message.h"
#include "util/rng.h"

namespace radiocast::obs {
class metrics_registry;
}  // namespace radiocast::obs

namespace radiocast {

class graph;
struct run_options;  // sim/simulator.h
struct run_result;   // sim/simulator.h

/// Per-step information available to a node.
struct node_context {
  std::int64_t step = 0;  ///< global synchronous step number (0-based)
  rng* gen = nullptr;     ///< per-node generator (unused by deterministic
                          ///< protocols; never null inside the simulator)
  /// Observability hook: null unless the run enables metrics
  /// (run_options::metrics). Protocols use it to tag phase markers —
  /// decay stage draws, kp block/stage indices, DFS token hops, echo
  /// rounds — and MUST guard every use with a null check so that
  /// metrics-disabled runs stay free of instrumentation cost. The
  /// registry carries no protocol semantics; it never feeds decisions.
  obs::metrics_registry* metrics = nullptr;
};

/// A protocol's nodes stepped one at a time, outside the step engines —
/// for callers that decide deliveries themselves (the lower-bound
/// adversary, adversary/lower_bound_builder.h). Node v carries label v.
/// Made by bound_protocol::make_table over the protocol's traits.
class node_table {
 public:
  virtual ~node_table() = default;

  /// Call once per step, before any on_step or on_receive of that step.
  virtual void begin_step(std::int64_t step) = 0;
  /// Node v's action at this step: a message, or std::nullopt to listen.
  virtual std::optional<message> on_step(node_id v,
                                         const node_context& ctx) = 0;
  /// Delivers `m` to node v (after on_step, in the same step).
  virtual void on_receive(node_id v, const node_context& ctx,
                          const message& m) = 0;
  /// Puts node v back into the state init gave it — a fresh instance with
  /// an empty history.
  virtual void reset(node_id v) = 0;
};

/// A protocol's traits bound to one label bound r. The only
/// implementation is the traits_binding template (sim/soa_engine.h), so
/// every protocol reaches the engines through its traits.
class bound_protocol {
 public:
  virtual ~bound_protocol() = default;

  /// One broadcast on `g` with node 0 as source, on the step loop
  /// opts.engine selects. Called by run_broadcast_with_r, which has
  /// already opened the "run_broadcast" span.
  virtual run_result run(const graph& g, const run_options& opts) const = 0;

  /// Per-node stepping for nodes 0 … n−1 (labels = node ids, n ≤ r + 1).
  virtual std::unique_ptr<node_table> make_table(node_id n) const = 0;
};

/// A broadcasting algorithm: a name, and its traits.
class protocol {
 public:
  virtual ~protocol() = default;

  /// Human-readable algorithm name for tables and traces.
  virtual std::string name() const = 0;

  /// True for deterministic algorithms (required by the lower-bound
  /// adversary, which replays node decisions).
  virtual bool deterministic() const = 0;

  /// The protocol's traits configured for label bound r: implementations
  /// fill in their traits struct and `return bind_traits(traits, r);`.
  virtual std::unique_ptr<const bound_protocol> bind(node_id r) const = 0;
};

}  // namespace radiocast
