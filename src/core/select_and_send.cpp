#include "core/select_and_send.h"

#include <optional>

#include "core/select_and_send_soa.h"
#include "sim/soa_engine.h"

namespace radiocast {

namespace {

// Select-and-Send's traits (sim/soa_engine.h). The state machine itself
// lives in core/select_and_send_soa.h — shared with the interleaved
// protocol's odd-step stream — so this struct is the thin adapter between
// the engine's hook signatures and the sas core.
struct sas_soa_traits {
  node_id r_bound = 1;  // shared config: the label bound r, set by bind
  // Bound by bind_metrics when the run records metrics.
  std::optional<sas_proto::sas_metrics> metrics;

  struct state {
    sas_proto::sas_soa_state core;
  };

  void bind_metrics(obs::metrics_registry& reg) {
    metrics.emplace();
    metrics->bind(reg);
  }

  void init(state* s, node_id label) const {
    sas_proto::sas_soa_init(&s->core, label);
  }

  // radiocast-analyze: hot-path-begin -- per awake node per step.
  std::optional<message> on_step(state* s, const node_context& ctx) const {
    return sas_proto::sas_soa_on_step(&s->core, ctx.step, r_bound,
                                      metrics_or_null());
  }

  void on_receive(state* s, const node_context& ctx, const message& m) const {
    sas_proto::sas_soa_on_receive(&s->core, ctx.step, r_bound,
                                  metrics_or_null(), m);
  }
  // radiocast-analyze: hot-path-end

  bool informed(const state& s) const { return s.core.informed; }
  bool halted(const state& s) const { return s.core.halted; }

  void on_restart(state* s, const node_context&) const {
    sas_proto::sas_soa_restart(&s->core);
  }

 private:
  const sas_proto::sas_metrics* metrics_or_null() const {
    return metrics ? &*metrics : nullptr;
  }
};

}  // namespace

std::unique_ptr<const bound_protocol> select_and_send_protocol::bind(
    node_id r) const {
  sas_soa_traits traits;
  traits.r_bound = r;
  return bind_traits(traits, r);
}

}  // namespace radiocast
