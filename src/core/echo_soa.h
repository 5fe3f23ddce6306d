// Procedure Echo and Algorithm Binary-Selection (paper, Section 4.1), as
// flat POD state for protocol traits (sim/soa_engine.h).
//
// Echo(w, A) lets a node v that knows one neighbor w ∉ A distinguish
// |A| ∈ {0, 1, ≥2} in two steps — simulating collision detection, which the
// radio model does not provide:
//   step 1: every node in A transmits its label;
//   step 2: every node in A ∪ {w} transmits its label.
// v hears step 1 only ⇒ |A| = 1 (and learns the unique label);
// v hears step 2 only ⇒ |A| = 0; v hears neither ⇒ |A| ≥ 2.
//
// Binary-Selection finds one element of a nonempty set S of neighbors in
// O(log m) three-step segments (order, echo-1, echo-2), descending ranges:
// on |R ∩ S| = 0 move to the next half-size segment, on ≥ 2 take the left
// half, on = 1 select.
//
// `soa_selection` + the sel_* functions implement the initiator side of the
// full pipeline the deterministic algorithms use: a whole-set probe, then
// doubling probes over [1, 2ᵏ], then Binary-Selection. The responder side
// (scheduling the two echo replies upon receiving an order) is
// soa_schedule_echo_replies, and `soa_pending` is the per-node queue of
// future transmissions.
//
// WHY ONE STRUCTURAL SLOT AND AN 8-BIT REPLY WINDOW SUFFICE:
//
//   * Structural entries (presence reservations, stop/token notices,
//     stop-layer orders) are exclusive: a node schedules its presence reply
//     at most once per run (there is exactly one source announcement), the
//     source's stop notice is guarded by awaiting_presence, and a head's
//     stop-layer order is scheduled only after become_head cleared the
//     queue — so at most ONE structural entry is ever live, and it always
//     precedes any reply entry in scheduling order (replies need a prior
//     echo order). take() therefore fires the structural entry first when
//     both fall on one step.
//   * Echo replies from one node are CONTENT-IDENTICAL ({reply_kind,
//     self}), so a step's reply only needs a presence bit, not a payload.
//     The radio model delivers at most one order per step, so replies land
//     at most 2 steps ahead — the 8-bit window never overflows — and
//     duplicate same-step replies collapse into one bit: a node transmits
//     once per step.
//   * An entry fires only at exactly its step. Stale entries (a reservation
//     whose step passed while the node was crashed, or a reply shadowed by
//     a same-step structural entry) never fire, and take() purges them.
//
// Step fields are 32-bit to fit the engine's 64-byte state budget: the
// furthest schedule is step + 2·label + 2, so runs stay exact through
// step ≈ 2³¹ − 2·r — far past every configured max_steps.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>

#include "obs/metrics.h"
#include "sim/message.h"
#include "util/assert.h"

namespace radiocast {

/// Message kinds the selection subprotocol uses, chosen by the owning
/// protocol so kind spaces never collide.
/// Order message layout: a = range lo, b = range hi, c = helper label.
/// Reply message layout: the transmitter's label rides in `from`.
struct selection_kinds {
  message_kind order = 0;
  message_kind reply = 0;
};

/// Future-transmission window (12 bytes): one structural entry (kind +
/// step) plus an 8-bit reply window anchored at reply_base (bit k set ⇔ a
/// reply is owed at step reply_base + k).
struct soa_pending {
  std::int32_t one_step = -1;    ///< structural entry's step; −1 = none
  std::int32_t reply_base = 0;   ///< step of reply bit 0
  std::uint8_t reply_mask = 0;   ///< bit k ⇒ reply owed at reply_base + k
  std::int8_t one_kind = 0;      ///< structural entry's message_kind

  void clear() {
    one_step = -1;
    reply_mask = 0;
  }

  /// Schedules the (unique — see header comment) structural entry.
  void schedule_structural(std::int64_t step, message_kind kind) {
    RC_CHECK_MSG(one_step == -1 || one_step < static_cast<std::int32_t>(step),
                 "soa_pending: overlapping structural schedules");
    one_step = static_cast<std::int32_t>(step);
    one_kind = static_cast<std::int8_t>(kind);
  }

  /// Schedules an echo reply for `step` (≤ 2 steps ahead).
  void schedule_reply(std::int64_t step) {
    const auto s = static_cast<std::int32_t>(step);
    if (reply_mask == 0) {
      reply_base = s;
      reply_mask = 1;
      return;
    }
    if (s < reply_base) {
      const std::int32_t shift = reply_base - s;
      RC_CHECK(shift < 8);
      reply_mask = static_cast<std::uint8_t>(reply_mask << shift);
      reply_base = s;
      reply_mask |= 1;
      return;
    }
    const std::int32_t bit = s - reply_base;
    RC_CHECK_MSG(bit < 8, "soa_pending: reply scheduled past the window");
    reply_mask |= static_cast<std::uint8_t>(std::uint8_t{1} << bit);
  }

  /// What fires at `step`: 0 = nothing, 1 = the structural entry (caller
  /// reconstructs the message from one_kind + its own state), 2 = a reply.
  /// Purges entries whose step has passed (they can never fire).
  int take(std::int64_t step) {
    const auto s = static_cast<std::int32_t>(step);
    if (reply_mask != 0 && reply_base < s) {
      const std::int32_t shift = s - reply_base;
      reply_mask = shift >= 8
                       ? std::uint8_t{0}
                       : static_cast<std::uint8_t>(reply_mask >> shift);
      reply_base = s;
    }
    if (one_step != -1 && one_step < s) one_step = -1;
    if (one_step == s) {
      one_step = -1;
      return 1;
    }
    if (reply_mask != 0 && reply_base == s && (reply_mask & 1) != 0) {
      reply_mask = static_cast<std::uint8_t>(reply_mask & ~std::uint8_t{1});
      return 2;
    }
    return 0;
  }
};

/// Responder side: given an order received at `step` by a node with label
/// `self`, schedules the Echo replies it owes.
/// * A member of the probed set A (the caller decides membership) replies in
///   both echo steps (A transmits in step 1, A ∪ {w} in step 2).
/// * The helper w replies in the second echo step only.
inline void soa_schedule_echo_replies(soa_pending* out,
                                      const selection_kinds& kinds,
                                      const message& order, std::int64_t step,
                                      node_id self, bool is_member) {
  RC_REQUIRE(order.kind == kinds.order);
  const auto lo = static_cast<node_id>(order.a);
  const auto hi = static_cast<node_id>(order.b);
  const auto helper = static_cast<node_id>(order.c);
  if (is_member && self >= lo && self <= hi) {
    out->schedule_reply(step + 1);
    out->schedule_reply(step + 2);
  } else if (self == helper) {
    out->schedule_reply(step + 2);
  }
}

/// Initiator-side selection state (24 bytes): probes the responder set S
/// (whose members are this node's neighbors) and either selects exactly one
/// of them or reports S = ∅, in O(log label_bound) echo segments. The
/// selected responder label is heard1 once status == selected
/// (sel_selected_label).
///
/// A reply pattern that is impossible on a reliable channel (both echo
/// steps heard, a non-helper lone step-2 reply, or a range walk past the
/// label bound) restarts the probe from the full probe, counted under the
/// `echo.recoveries` metric. It never happens in the fault-free model;
/// under fault injection (src/fault/) dropped replies can produce such
/// patterns, and restarting keeps the selection correct at the price of
/// extra segments. Faults only erase deliveries, so a heard reply is always
/// genuine — errors can only bias an echo toward the "≥2" outcome, never
/// toward a false "unique" or false "empty".
struct soa_selection {
  node_id lo = 0, hi = 0;
  node_id heard1 = -1, heard2 = -1;  ///< −1 = nothing heard
  std::int32_t segments = 0;
  std::uint8_t status = 0;      ///< 0 running, 1 empty_set, 2 selected
  std::uint8_t phase = 0;       ///< 0 full_probe, 1 doubling, 2 binary
  std::uint8_t sub = 0;         ///< 0 send_order, 1 listen1, 2 listen2,
                                ///< 3 evaluate
  std::uint8_t doubling_k = 0;
};

/// The selection's metrics, declared by the owning protocol's
/// bind_metrics: probe restarts (`echo.recoveries`) and issued segments
/// per probe phase (`echo.segments{full_probe|doubling|binary}`, indexed by
/// soa_selection::phase). The sel_* functions take a pointer to it, null
/// when the run records no metrics.
struct echo_metrics {
  obs::counter_handle recoveries;
  std::array<obs::counter_handle, 3> segments;

  void bind(obs::metrics_registry& reg) {
    recoveries = {reg, "echo.recoveries"};
    segments = {obs::counter_handle{reg, "echo.segments", "full_probe"},
                obs::counter_handle{reg, "echo.segments", "doubling"},
                obs::counter_handle{reg, "echo.segments", "binary"}};
  }
};

// radiocast-analyze: hot-path-begin -- the selection runs inside the
// token holder's on_step and on_receive.

namespace soa_echo_detail {

inline constexpr std::uint8_t kRunning = 0, kEmptySet = 1, kSelected = 2;
inline constexpr std::uint8_t kFullProbe = 0, kDoubling = 1, kBinary = 2;
inline constexpr std::uint8_t kSendOrder = 0, kListen1 = 1, kListen2 = 2,
                              kEvaluate = 3;
inline constexpr int kOutcomeEmpty = 0, kOutcomeUnique = 1, kOutcomeMulti = 2;

inline void sel_recover(soa_selection* s, node_id bound,
                        const echo_metrics* metrics) {
  if (metrics != nullptr) metrics->recoveries->add();
  s->phase = kFullProbe;
  s->doubling_k = 0;
  s->lo = 0;
  s->hi = bound;
}

inline void sel_note_segment(soa_selection* s, const echo_metrics* metrics) {
  ++s->segments;
  if (metrics != nullptr) metrics->segments[s->phase]->add();
}

// Moves the probe on after one echo segment's outcome.
inline void sel_advance(soa_selection* s, int outcome, node_id bound,
                        const echo_metrics* metrics) {
  switch (s->phase) {
    case kFullProbe:
      switch (outcome) {
        case kOutcomeEmpty:
          s->status = kEmptySet;
          return;
        case kOutcomeUnique:
          s->status = kSelected;  // selected label = heard1
          return;
        default:
          s->phase = kDoubling;
          s->doubling_k = 1;
          s->lo = 1;
          s->hi = 2;
          return;
      }
    case kDoubling:
      switch (outcome) {
        case kOutcomeEmpty: {
          ++s->doubling_k;
          if ((std::int64_t{1} << (s->doubling_k - 1)) > bound) {
            sel_recover(s, bound, metrics);
            return;
          }
          s->lo = 1;
          s->hi = static_cast<node_id>(
              std::min<std::int64_t>(std::int64_t{1} << s->doubling_k,
                                     static_cast<std::int64_t>(bound)));
          return;
        }
        case kOutcomeUnique:
          s->status = kSelected;
          return;
        default: {
          const std::int64_t m = std::int64_t{1} << s->doubling_k;
          s->phase = kBinary;
          s->lo = 1;
          s->hi = static_cast<node_id>(std::max<std::int64_t>(1, m / 2));
          return;
        }
      }
    default:
      switch (outcome) {
        case kOutcomeUnique:
          s->status = kSelected;
          return;
        case kOutcomeEmpty: {
          const node_id size = s->hi - s->lo + 1;
          const node_id next = std::max<node_id>(1, size / 2);
          s->lo = s->hi + 1;
          s->hi = s->hi + next;
          if (s->lo > bound + 1) sel_recover(s, bound, metrics);
          return;
        }
        default: {
          const node_id size = s->hi - s->lo + 1;
          if (size < 2) {
            sel_recover(s, bound, metrics);
            return;
          }
          s->hi = s->lo + size / 2 - 1;
          return;
        }
      }
  }
}

}  // namespace soa_echo_detail

/// Starts a selection over responder labels 1 … bound (≥ 1).
inline void sel_init(soa_selection* s, node_id bound) {
  RC_REQUIRE(bound >= 1);
  *s = soa_selection{};
  s->lo = 0;
  s->hi = bound;
}

/// Advances one step: the order to transmit, or nullopt when listening
/// (or when just finished — check sel_finished). `metrics`, when non-null,
/// counts issued segments and probe restarts (echo_metrics).
inline std::optional<message> sel_on_step(soa_selection* s,
                                          const selection_kinds& kinds,
                                          node_id helper, node_id bound,
                                          const echo_metrics* metrics) {
  using namespace soa_echo_detail;
  RC_REQUIRE(s->status == kRunning);
  switch (s->sub) {
    case kSendOrder:
      s->heard1 = -1;
      s->heard2 = -1;
      s->sub = kListen1;
      sel_note_segment(s, metrics);
      return message{kinds.order, -1, s->lo, s->hi, helper};
    case kListen1:
      s->sub = kListen2;
      return std::nullopt;
    case kListen2:
      s->sub = kEvaluate;
      return std::nullopt;
    default: {
      // Impossible-reply patterns restart the probe; see soa_selection
      // for the reliability argument.
      if (s->heard1 != -1 && s->heard2 == -1) {
        sel_advance(s, kOutcomeUnique, bound, metrics);
      } else if (s->heard1 == -1 && s->heard2 != -1 && s->heard2 == helper) {
        sel_advance(s, kOutcomeEmpty, bound, metrics);
      } else if (s->heard1 == -1 && s->heard2 == -1) {
        sel_advance(s, kOutcomeMulti, bound, metrics);
      } else {
        sel_recover(s, bound, metrics);
      }
      if (s->status != kRunning) return std::nullopt;
      // Immediately issue the next order in this same step.
      s->heard1 = -1;
      s->heard2 = -1;
      s->sub = kListen1;
      sel_note_segment(s, metrics);
      return message{kinds.order, -1, s->lo, s->hi, helper};
    }
  }
}

/// Feed every message the owning node receives while the selection runs.
inline void sel_on_receive(soa_selection* s, const selection_kinds& kinds,
                           const message& msg) {
  using namespace soa_echo_detail;
  if (msg.kind != kinds.reply) return;
  if (s->sub == kListen2) {
    s->heard1 = msg.from;
  } else if (s->sub == kEvaluate) {
    s->heard2 = msg.from;
  }
}

// radiocast-analyze: hot-path-end

/// True once the selection is no longer running.
inline bool sel_finished(const soa_selection& s) {
  return s.status != soa_echo_detail::kRunning;
}

inline bool sel_selected(const soa_selection& s) {
  return s.status == soa_echo_detail::kSelected;
}

/// The selected responder label; only valid once sel_selected(s).
inline node_id sel_selected_label(const soa_selection& s) {
  RC_REQUIRE(sel_selected(s));
  return s.heard1;
}

}  // namespace radiocast
