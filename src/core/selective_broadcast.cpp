#include "core/selective_broadcast.h"

#include <algorithm>

#include "sim/soa_engine.h"
#include "util/assert.h"
#include "util/math.h"

namespace radiocast {

namespace {

constexpr message_kind kSelectivePayload = 1;

// The selective-family protocol's traits (sim/soa_engine.h). The family
// — one sorted label list per slot of the pass — is shared configuration
// on the traits object; begin_step picks the step's set once, and on_step
// is a membership test of the node's label in it.
struct selective_soa_traits {
  std::shared_ptr<const set_family> family;  // shared config, set by bind

  // Per-step cache (begin_step hoist): F_{step mod |F|}.
  const std::vector<int>* step_set = nullptr;

  struct state {
    node_id label = 0;
    bool informed = false;
  };

  void begin_step(std::int64_t step) {
    step_set = &(*family)[static_cast<std::size_t>(
        step % static_cast<std::int64_t>(family->size()))];
  }

  void init(state* s, node_id label) const {
    s->label = label;
    s->informed = (label == 0);
  }

  std::optional<message> on_step(state* s, const node_context&) const {
    if (!s->informed) return std::nullopt;
    if (std::binary_search(step_set->begin(), step_set->end(),
                           static_cast<int>(s->label))) {
      return message{kSelectivePayload, s->label, 0, 0, 0, 0};
    }
    return std::nullopt;
  }

  void on_receive(state* s, const node_context&, const message&) const {
    s->informed = true;
  }

  bool informed(const state& s) const { return s.informed; }
  bool halted(const state&) const { return false; }

  void on_restart(state* s, const node_context&) const {
    s->informed = (s->label == 0);  // the family is configuration
  }
};

}  // namespace

selective_broadcast_protocol::selective_broadcast_protocol(node_id r, int k)
    : r_(r), k_(k) {
  RC_REQUIRE(r >= 1);
  RC_REQUIRE(k >= 1);
  // Pair-separation: two labels ≤ r collide modulo at most log₂(r)/log₂(q)
  // primes q; with k·⌈log₂(r+1)⌉ + 1 primes ≥ k, every |X| ≤ k has a prime
  // separating one element from the rest.
  const int primes = k * std::max(1, ilog2_ceil(
                             static_cast<std::uint64_t>(r) + 1)) + 1;
  auto family = std::make_shared<set_family>(
      modular_selective_family(static_cast<int>(r) + 1, k, primes));
  for (auto& set : *family) std::sort(set.begin(), set.end());
  family_ = std::move(family);
}

std::string selective_broadcast_protocol::name() const {
  return "selective-family(k=" + std::to_string(k_) + ")";
}

std::int64_t selective_broadcast_protocol::family_size() const {
  return static_cast<std::int64_t>(family_->size());
}

std::unique_ptr<const bound_protocol> selective_broadcast_protocol::bind(
    node_id r) const {
  RC_REQUIRE_MSG(r <= r_,
                 "protocol built for a smaller label bound than the run's");
  selective_soa_traits traits;
  traits.family = family_;
  return bind_traits(traits, r);
}

}  // namespace radiocast
