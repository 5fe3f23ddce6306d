#include "campaign/regress.h"

#include <cmath>
#include <sstream>

namespace radiocast::campaign {

namespace {

bool higher_better_key(const std::string& key) {
  // Every "*speedup" ratio is a wall-clock-derived higher-is-better
  // value.
  if (key.size() >= 7 &&
      key.compare(key.size() - 7, 7, "speedup") == 0) {
    return true;
  }
  return key == "off_over_on" || key.rfind("steps_per_sec", 0) == 0;
}

double default_tolerance(const std::string& label) {
  return higher_better_key(label) ? 50.0 : 0.0;
}

double tolerance_for(const regress_options& opts, const std::string& label) {
  for (const auto& [key, pct] : opts.tolerances) {
    if (key == label) return pct;
  }
  return default_tolerance(label);
}

std::string format_number(double v) {
  std::ostringstream ss;
  ss << v;
  return ss.str();
}

const obs::json_value* find_case(const obs::json_value& doc,
                                 const std::string& name) {
  const obs::json_value* cases = doc.find("cases");
  if (cases == nullptr || !cases->is_array()) return nullptr;
  for (const obs::json_value& c : cases->items()) {
    const obs::json_value* n = c.find("name");
    if (n != nullptr && n->is_string() && n->as_string() == name) return &c;
  }
  return nullptr;
}

struct checker {
  const regress_options& opts;
  regress_report& report;
  const std::string& case_name;

  void problem(const std::string& label, const std::string& what) {
    report.ok = false;
    report.problems.push_back(case_name + ": " + label + " " + what);
  }

  /// Directional comparison with a percent tolerance. `lower_better`
  /// flips the direction; a missing fresh value is always a violation.
  void directional(const std::string& label, const obs::json_value* base,
                   const obs::json_value* fresh, bool lower_better) {
    if (base == nullptr || !base->is_number()) return;  // nothing to gate on
    const double b = base->as_double();
    if (std::isnan(b)) return;
    if (fresh == nullptr || !fresh->is_number() ||
        std::isnan(fresh->as_double())) {
      problem(label, "present in the baseline but missing from the fresh run");
      return;
    }
    const double f = fresh->as_double();
    const double pct = tolerance_for(opts, label);
    ++report.comparisons;
    const double limit =
        lower_better ? b * (1.0 + pct / 100.0) : b * (1.0 - pct / 100.0);
    const bool violated = lower_better ? f > limit : f < limit;
    if (violated) {
      problem(label, "regressed: baseline=" + format_number(b) +
                         " fresh=" + format_number(f) + " (limit " +
                         format_number(limit) + ", tolerance " +
                         format_number(pct) + "%)");
    }
  }

  void exact(const std::string& label, const obs::json_value* base,
             const obs::json_value* fresh) {
    if (base == nullptr || !base->is_number()) return;
    if (fresh == nullptr || !fresh->is_number()) {
      problem(label, "present in the baseline but missing from the fresh run");
      return;
    }
    ++report.comparisons;
    if (base->as_int() != fresh->as_int()) {
      problem(label, "drifted: baseline=" + std::to_string(base->as_int()) +
                         " fresh=" + std::to_string(fresh->as_int()) +
                         " (must match exactly)");
    }
  }
};

}  // namespace

regress_report run_regress(const obs::json_value& baseline,
                           const obs::json_value& fresh,
                           const regress_options& opts) {
  regress_report report;
  const obs::json_value* base_cases = baseline.find("cases");
  if (base_cases == nullptr || !base_cases->is_array()) {
    report.ok = false;
    report.problems.push_back("baseline has no cases array");
    return report;
  }
  for (const obs::json_value& base_case : base_cases->items()) {
    const obs::json_value* name = base_case.find("name");
    if (name == nullptr || !name->is_string()) continue;
    const std::string case_name = name->as_string();
    const obs::json_value* fresh_case = find_case(fresh, case_name);
    if (fresh_case == nullptr) {
      report.ok = false;
      report.problems.push_back(case_name +
                                ": present in the baseline but missing from "
                                "the fresh run");
      continue;
    }
    checker chk{opts, report, case_name};
    chk.directional("steps.mean", base_case.find_path("steps.mean"),
                    fresh_case->find_path("steps.mean"),
                    /*lower_better=*/true);
    chk.directional("timeout_rate", base_case.find("timeout_rate"),
                    fresh_case->find("timeout_rate"),
                    /*lower_better=*/true);
    const obs::json_value* base_values = base_case.find("values");
    const obs::json_value* fresh_values = fresh_case->find("values");
    if (base_values != nullptr && base_values->is_object()) {
      for (const auto& [key, member] : base_values->members()) {
        const obs::json_value* fresh_member =
            fresh_values != nullptr && fresh_values->is_object()
                ? fresh_values->find(key)
                : nullptr;
        if (key == "steps") {
          chk.exact("values.steps", &member, fresh_member);
        } else if (higher_better_key(key)) {
          chk.directional(key, &member, fresh_member,
                          /*lower_better=*/false);
        }
        // Everything else (raw wall-clock, parameters echoed into values)
        // is not comparable across hosts — ignored by design.
      }
    }
  }
  return report;
}

}  // namespace radiocast::campaign
