// Crash-recovery node failures: crash-stop with a way back.
//
// Extends crash_model's two triggers (a fixed (node, step) schedule and a
// per-step crash probability) with rejoin semantics: a crashed node comes
// back after a deterministic downtime and/or by a per-step geometric
// recovery probability, in one of two modes:
//
//   * retain  — volatile state survived the outage (battery brown-out,
//     scheduler stall): the node resumes exactly where it was. An informed
//     node rejoins the frontier; completion accounting simply un-exempts
//     it.
//   * amnesia — the reboot lost all volatile state: the simulator calls
//     protocol's on_restart hook (sim/protocol.h), evicts the node from the
//     informed/awake sets, and the node must be re-informed by a fresh
//     delivery before it participates again.
//
// Recovered nodes are eligible to crash again, so a node may cycle
// down/up many times in one run; `run_result::crashed_nodes` counts crash
// EVENTS (it can exceed n), `run_result::recoveries` counts rejoins.
//
// Completion interacts with recovery through fault_model::
// pending_recoveries(): while any node is down but destined to return, the
// simulator refuses to declare the broadcast complete — a returning
// amnesiac still needs the message, so the "every surviving node informed"
// predicate only becomes meaningful once the roster settles. With neither
// `downtime` nor `recovery_probability` set the model degenerates to plain
// crash-stop (pending_recoveries() = 0, nobody returns).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "fault/fault_model.h"

namespace radiocast::fault {

/// What a rejoining node remembers. See the header comment.
enum class recovery_mode { retain, amnesia };

struct recovery_options {
  /// Deterministic crashes: node v crashes at the start of step s.
  std::vector<std::pair<node_id, std::int64_t>> schedule;
  /// Per live node, per step, independent crash probability in [0, 1].
  double crash_probability = 0.0;
  /// Never crash node 0. Defaults to false: with recovery enabled a source
  /// outage is survivable (the amnesia source still knows its own message),
  /// which is exactly the regime the resilience bench sweeps.
  bool spare_source = false;

  recovery_mode mode = recovery_mode::retain;
  /// Deterministic rejoin: a node crashed at step s recovers at the start
  /// of step s + downtime (0 = disabled; must be ≥ 1 when set — a node is
  /// down for at least the step it crashed in).
  std::int64_t downtime = 0;
  /// Geometric rejoin: each step after the crash step, every down node
  /// independently recovers with this probability in [0, 1]. Combines with
  /// `downtime` (whichever fires first). Both zero ⇒ crashes are permanent.
  double recovery_probability = 0.0;
};

class recovery_model final : public fault_model {
 public:
  explicit recovery_model(recovery_options opts);

  std::string name() const override;
  void begin_run(const run_view& view) override;
  void begin_step(const step_view& view, step_faults* out) override;
  std::int64_t pending_recoveries() const override;

  /// Crash events so far in the current run (a node may crash repeatedly).
  std::int64_t crashed_count() const { return crashed_count_; }
  /// Rejoin events so far in the current run.
  std::int64_t recovered_count() const { return recovered_count_; }

  std::unique_ptr<fault_model> clone() const override {
    return std::make_unique<recovery_model>(opts_);
  }

 private:
  bool recovery_enabled() const {
    return opts_.downtime > 0 || opts_.recovery_probability > 0.0;
  }

  recovery_options opts_;
  rng gen_{0};
  node_id n_ = 0;
  std::vector<std::uint8_t> down_;        // this model's own crash record
  std::vector<std::int64_t> down_since_;  // step of the last crash, per node
  std::size_t schedule_cursor_ = 0;       // into sorted schedule_
  std::vector<std::pair<std::int64_t, node_id>> schedule_;  // (step, node)
  std::int64_t down_count_ = 0;
  std::int64_t crashed_count_ = 0;
  std::int64_t recovered_count_ = 0;
};

}  // namespace radiocast::fault
