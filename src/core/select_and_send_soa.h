// The Select-and-Send node state machine (core/select_and_send.h) as flat
// POD state plus free functions, shared between two traits:
// select_and_send's own and the interleaved(rr+sas) protocol's, which runs
// this exact state machine on its odd-step subsequence and records no
// metrics (it passes a null sas_metrics).
#pragma once

#include <cstdint>
#include <optional>

#include "core/echo_soa.h"
#include "obs/metrics.h"
#include "sim/message.h"

namespace radiocast::sas_proto {

// Message kinds (see core/echo_soa.h for the order/reply payload layout).
constexpr message_kind kAnnounce = 1;   // source's step-0 announcement
constexpr message_kind kPresence = 2;   // neighbor i replies in step 2i
constexpr message_kind kStopToken = 3;  // a = label receiving the token
constexpr message_kind kOrder = 4;      // echo order
constexpr message_kind kReply = 5;      // echo reply
constexpr message_kind kToken = 6;      // a = label receiving the token

constexpr selection_kinds kKinds{kOrder, kReply};

/// Flat per-node Select-and-Send state (56 bytes).
struct sas_soa_state {
  node_id label = -1;
  node_id parent = -1;
  node_id helper = -1;
  soa_pending pending;
  soa_selection sel;
  bool informed = false;
  bool visited = false;
  bool halted = false;
  bool driving = false;
  bool awaiting_presence = false;
};

/// Select-and-Send's metrics, declared by the owning traits'
/// bind_metrics: DFS token hops and first visits, selections made and
/// subtrees completed, segments per selection, and the selection's own
/// echo_metrics. The functions below take a pointer to it, null when the
/// run records no metrics.
struct sas_metrics {
  obs::counter_handle first_visits;
  obs::counter_handle token_hops;
  obs::counter_handle selections;
  obs::counter_handle subtrees_completed;
  obs::histogram_handle segments_per_selection;
  echo_metrics echo;

  void bind(obs::metrics_registry& reg) {
    first_visits = {reg, "sas.first_visits"};
    token_hops = {reg, "sas.token_hops"};
    selections = {reg, "sas.selections"};
    subtrees_completed = {reg, "sas.subtrees_completed"};
    segments_per_selection = {reg, "sas.segments_per_selection"};
    echo.bind(reg);
  }
};

inline void sas_soa_init(sas_soa_state* s, node_id label) {
  *s = sas_soa_state{};
  s->label = label;
  if (label == 0) {
    s->informed = true;
    s->visited = true;
  }
}

/// Amnesia restart: back to the init state. Every member but the label is
/// volatile DFS state — a rebooted token holder orphans the traversal, and
/// the run may stall, which is exactly the brittleness the resilience
/// bench measures.
inline void sas_soa_restart(sas_soa_state* s) { sas_soa_init(s, s->label); }

// radiocast-analyze: hot-path-begin -- everything below runs inside the
// traits' on_step and on_receive.

/// The token arrives at this node (a forward pass or a child's return).
inline void sas_soa_take_token(sas_soa_state* s, node_id from, node_id r,
                               const sas_metrics* metrics) {
  if (!s->visited) {
    s->visited = true;
    s->parent = from;
    s->helper = from;
    if (metrics != nullptr) metrics->first_visits->add();
  }
  // Phase marker: every DFS token hop (forward passes and returns).
  if (metrics != nullptr) metrics->token_hops->add();
  // (visited && token addressed to us) ⇒ a child returned the token:
  // resume the DFS with a fresh probe either way.
  s->driving = true;
  s->pending.clear();
  sel_init(&s->sel, r);
}

/// The message scheduled for `step`, if any: reconstructed from the
/// structural kind and the node's state (the contents are pure functions
/// of both — see echo_soa.h).
inline std::optional<message> sas_soa_take_pending(sas_soa_state* s,
                                                   std::int64_t step) {
  switch (s->pending.take(step)) {
    case 1:
      if (s->pending.one_kind == kPresence) {
        return message{kPresence, s->label, 0, 0, 0};
      }
      // kStopToken: a = the selected helper's label (stored when the
      // source heard the first presence reply).
      return message{kStopToken, 0, s->helper, 0, 0};
    case 2:
      return message{kReply, s->label, 0, 0, 0};
    default:
      return std::nullopt;
  }
}

/// One step of the token holder's selection; on completion passes the
/// token forward, or returns it to the parent and halts.
inline std::optional<message> sas_soa_drive(sas_soa_state* s,
                                            std::int64_t step, node_id r,
                                            const sas_metrics* metrics) {
  std::optional<message> out = sel_on_step(
      &s->sel, kKinds, s->helper, r, metrics != nullptr ? &metrics->echo
                                                        : nullptr);
  (void)step;
  if (!sel_finished(s->sel)) return out;
  s->driving = false;
  if (metrics != nullptr) {
    metrics->segments_per_selection->observe(s->sel.segments);
  }
  if (sel_selected(s->sel)) {
    // Pass the token forward; we resume when it comes back.
    const node_id next = sel_selected_label(s->sel);
    if (metrics != nullptr) metrics->selections->add();
    return message{kToken, s->label, next, 0, 0};
  }
  // S = ∅: the subtree below us is complete.
  s->halted = true;
  if (metrics != nullptr) metrics->subtrees_completed->add();
  if (s->label == 0) return std::nullopt;  // the traversal is over
  return message{kToken, s->label, s->parent, 0, 0};
}

/// The node's action at `step`.
inline std::optional<message> sas_soa_on_step(sas_soa_state* s,
                                              std::int64_t step, node_id r,
                                              const sas_metrics* metrics) {
  // The source opens the algorithm.
  if (s->label == 0 && step == 0) {
    s->awaiting_presence = true;
    return message{kAnnounce, 0, 0, 0, 0};
  }
  // Scheduled duties (presence replies, echo replies — including helper
  // replies owed after this node stopped).
  if (auto due = sas_soa_take_pending(s, step)) return due;
  if (s->driving) return sas_soa_drive(s, step, r, metrics);
  return std::nullopt;
}

/// Delivery of `msg` at `step`.
inline void sas_soa_on_receive(sas_soa_state* s, std::int64_t step, node_id r,
                               const sas_metrics* metrics,
                               const message& msg) {
  s->informed = true;  // every message functionally carries the source word
  switch (msg.kind) {
    case kAnnounce:
      // Reserve slot 2·label for our presence reply.
      s->pending.schedule_structural(
          step + 2 * static_cast<std::int64_t>(s->label), kPresence);
      break;
    case kPresence:
      if (s->label == 0 && s->awaiting_presence) {
        s->awaiting_presence = false;
        s->helper = msg.from;  // j: the source's known neighbor
        s->pending.schedule_structural(step + 1, kStopToken);
      }
      break;
    case kStopToken:
      s->pending.clear();  // cancels any outstanding presence reservation
      if (static_cast<node_id>(msg.a) == s->label) {
        sas_soa_take_token(s, msg.from, r, metrics);
      }
      break;
    case kToken:
      if (static_cast<node_id>(msg.a) == s->label) {
        sas_soa_take_token(s, msg.from, r, metrics);
      }
      break;
    case kOrder:
      if (s->driving) break;  // impossible in a clean run; ignore defensively
      soa_schedule_echo_replies(&s->pending, kKinds, msg, step, s->label,
                                /*is_member=*/!s->visited);
      break;
    case kReply:
      if (s->driving) sel_on_receive(&s->sel, kKinds, msg);
      break;
    default:
      break;
  }
}

// radiocast-analyze: hot-path-end

}  // namespace radiocast::sas_proto
