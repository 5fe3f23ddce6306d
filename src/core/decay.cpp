#include "core/decay.h"

#include <algorithm>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/soa_engine.h"
#include "util/math.h"

namespace radiocast {

namespace {

constexpr message_kind kDecayPayload = 1;

// Decay's traits (sim/soa_engine.h): an informed node's per-phase cutoff
// draw and its transmit decision.
struct decay_soa_traits {
  std::int64_t phase_len = 1;  // shared config: 2⌈log(r+1)⌉, set by bind

  // Per-step cache (begin_step hoist): the phase arithmetic is a pure
  // function of the step number, identical for every node, so it is
  // computed once per step instead of once per awake node. on_step only
  // reads these, keeping the sharded phase-1 region race-free.
  std::int64_t step_phase = 0;
  std::int64_t step_offset = 0;
  std::int64_t phase_start = 0;

  // Phase markers, bound by bind_metrics when the run records metrics:
  // which decay phase is live, the distribution of drawn cutoffs
  // (geometric, mean ≈ 2), and transmissions per stage within the phase
  // (stage k transmits with effective probability 2⁻ᵏ across the informed
  // population) — one counter per offset, decay.stage_tx{offset}.
  obs::gauge_handle phase_gauge;
  obs::histogram_handle cutoff_hist;
  std::vector<obs::counter_handle> stage_tx;

  void bind_metrics(obs::metrics_registry& reg) {
    phase_gauge = {reg, "decay.phase"};
    cutoff_hist = {reg, "decay.cutoff"};
    stage_tx.clear();
    for (std::int64_t k = 0; k < phase_len; ++k) {
      stage_tx.emplace_back(reg, "decay.stage_tx", std::to_string(k));
    }
  }

  struct state {
    node_id label = 0;
    std::int64_t informed_step = -1;
    std::int64_t drawn_phase = -1;
    std::int64_t cutoff = 0;
    bool informed = false;
  };

  void begin_step(std::int64_t step) {
    step_phase = step / phase_len;
    step_offset = step % phase_len;
    phase_start = step_phase * phase_len;
  }

  void init(state* s, node_id label) const {
    s->label = label;
    s->informed = (label == 0);
    s->informed_step = -1;
    s->drawn_phase = -1;
    s->cutoff = 0;
  }

  // radiocast-analyze: hot-path-begin -- per awake node per step.
  std::optional<message> on_step(state* s, const node_context& ctx) const {
    if (!s->informed) return std::nullopt;
    if (s->informed_step >= phase_start) {
      return std::nullopt;  // informed mid-phase; joins the next phase
    }
    if (step_phase != s->drawn_phase) {
      // Draw this phase's geometric cutoff: transmit in steps 0..cutoff−1.
      s->drawn_phase = step_phase;
      s->cutoff = 1;
      while (s->cutoff < phase_len && ctx.gen->flip()) ++s->cutoff;
      if (phase_gauge) {
        phase_gauge->set(step_phase);
        cutoff_hist->observe(s->cutoff);
      }
    }
    if (step_offset < s->cutoff) {
      if (!stage_tx.empty()) {
        stage_tx[static_cast<std::size_t>(step_offset)]->add();
      }
      return message{kDecayPayload, s->label, 0, 0, 0};
    }
    return std::nullopt;
  }

  void on_receive(state* s, const node_context& ctx, const message&) const {
    if (!s->informed) {
      s->informed = true;
      s->informed_step = ctx.step;
    }
  }
  // radiocast-analyze: hot-path-end

  bool informed(const state& s) const { return s.informed; }
  bool halted(const state&) const { return false; }

  // Amnesia reboot: the label is configuration; everything else is
  // volatile.
  void on_restart(state* s, const node_context&) const { init(s, s->label); }
};

}  // namespace

std::unique_ptr<const bound_protocol> decay_protocol::bind(node_id r) const {
  decay_soa_traits traits;
  traits.phase_len =
      2 * std::max(1, ilog2_ceil(static_cast<std::uint64_t>(r) + 1));
  return bind_traits(traits, r);
}

}  // namespace radiocast
