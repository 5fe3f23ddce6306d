#include "core/round_robin.h"

#include "sim/soa_engine.h"

namespace radiocast {

namespace {

constexpr message_kind kRoundRobinPayload = 1;

// Round-robin's traits (sim/soa_engine.h): label + informed flag.
struct round_robin_soa_traits {
  std::int64_t modulus = 1;  // shared config: r + 1, set by bind

  // Per-step cache (begin_step hoist): the schedule slot is the same for
  // every node, so the division happens once per step, not per node.
  std::int64_t step_slot = 0;

  struct state {
    node_id label = 0;
    bool informed = false;
  };

  void init(state* s, node_id label) const {
    s->label = label;
    s->informed = (label == 0);
  }

  void begin_step(std::int64_t step) { step_slot = step % modulus; }

  std::optional<message> on_step(state* s, const node_context&) const {
    if (!s->informed) return std::nullopt;
    if (step_slot == s->label) {
      return message{kRoundRobinPayload, s->label, 0, 0, 0};
    }
    return std::nullopt;
  }

  void on_receive(state* s, const node_context&, const message&) const {
    s->informed = true;
  }

  bool informed(const state& s) const { return s.informed; }
  bool halted(const state&) const { return false; }

  void on_restart(state* s, const node_context&) const {
    s->informed = (s->label == 0);  // the only volatile state
  }
};

}  // namespace

std::unique_ptr<const bound_protocol> round_robin_protocol::bind(
    node_id r) const {
  round_robin_soa_traits traits;
  traits.modulus = r + 1;
  return bind_traits(traits, r);
}

}  // namespace radiocast
