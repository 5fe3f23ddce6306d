// Perf-regression gate — compares a fresh bench artifact against a
// committed baseline (bench/baselines/, written by
// scripts/update_baselines.sh) and reports every case/key that moved past
// its tolerance. `radiocast_inspect regress` is the CLI face; scripts/ci.sh
// runs it as a failing gate over the smoke-mode telemetry artifacts.
//
// The comparison is a WHITELIST, not a generic diff — only keys with a
// defined "better" direction participate:
//
//   key              direction       default tolerance
//   steps.mean       two-sided       0%   (trial records are deterministic)
//   timeout_rate     lower better    0%
//   values.steps     exact           —    (a step-count drift is a bug)
//   *speedup, off_over_on,
//   steps_per_sec_*  higher better   50%  (wall-clock derived: host noise)
//
// Every other key — wall_ms and friends in particular — is ignored: host
// wall-clock is not comparable across machines, only the RATIOS derived
// from same-process measurements are, and those get the wide tolerance.
// Per-key overrides (the CLI's `--tolerance key=pct`) replace the default
// (for the two-sided steps.mean, `steps.mean=5` allows ±5%);
// keys are matched by the label shown in the report ("steps.mean",
// "timeout_rate", or the bare values key like "steps_per_sec_soa").
//
// A case present in the baseline but missing from the fresh artifact is a
// regression (a silently dropped case must not pass the gate); a NEW case
// in the fresh artifact is fine — baselines update on the next refresh.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace radiocast::campaign {

struct regress_options {
  /// Per-key tolerance overrides, in PERCENT, replacing the defaults
  /// above. Matched by report label (see the header comment).
  std::vector<std::pair<std::string, double>> tolerances;
};

struct regress_report {
  bool ok = true;
  int comparisons = 0;  ///< whitelist keys actually compared
  /// One line per violation: "case: key baseline=… fresh=… (limit …)".
  std::vector<std::string> problems;
};

/// Compares `fresh` against `baseline` (both "radiocast.bench.v1" docs).
regress_report run_regress(const obs::json_value& baseline,
                           const obs::json_value& fresh,
                           const regress_options& opts = {});

}  // namespace radiocast::campaign
