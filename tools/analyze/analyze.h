// radiocast_analyze — semantic static-analysis suite (pass engine).
//
// The determinism lint (tools/lint/) is a token tripwire: it bans names.
// This engine reasons about STRUCTURE and FLOW on top of the same shared
// lexer (tools/lint/lexer.h), enforcing four project contracts that token
// matching cannot express (docs/STATIC_ANALYSIS.md):
//
//   P1 layering   the #include graph respects the declared layer manifest
//                 (util → obs → graph → … → campaign → harness): no upward
//                 edges, no file-level include cycles. The full DAG is
//                 emitted in the report.
//   P2 taint      wall-clock reads may only flow into wall-clock-family
//                 outputs. Values assigned from a clock API are tracked
//                 through scope-local assignments; branching on them, or
//                 sinking them into a non-wall-family telemetry key or
//                 struct member, is a finding. Every `rng` construction
//                 must derive from a seeded stream (util/rng.h): a numeric
//                 literal, a *seed*/*salt* expression, mix_seed/splitmix64,
//                 split(), or another generator.
//   P3 contract   every protocol traits struct (`*_soa_traits`, the one
//                 definition of a protocol, sim/soa_engine.h) keeps a
//                 `struct state` that avoids owning/non-trivially-copyable
//                 members, implements the full hook set (init, on_step,
//                 on_receive, informed, halted, on_restart — restart
//                 tolerance is mandatory), and declares any begin_step hook
//                 with the exact signature the engine detects
//                 (`begin_step(std::int64_t)`).
//   P4 hot-path   no heap allocation, std::string construction, throw, or
//                 iostream inside the annotated step-loop regions
//                 (`// radiocast-analyze: hot-path-begin` … `hot-path-end`)
//                 of sim/soa_engine.h: the whole step loop, both
//                 engines' phases and the shard fork/join helper.
//                 Text inside RC_CHECK*/RC_REQUIRE* macro arguments is
//                 exempt — the assertion-failure path is cold by
//                 definition.
//
// Findings are suppressed per line with
//   // radiocast-analyze: allow(<pass>) -- <justification>
// with the same grammar and annotation-linting as radiocast-lint allows
// (mandatory justification; malformed, unknown, or stale annotations are
// findings themselves, under the pseudo-pass "analyze-annotation").
//
// Like the lint, the engine is dependency-free and text-based — a
// tripwire, not a compiler — so scripts/ci.sh stage 0 can run it before
// anything else compiles. Tests drive it with synthetic paths and inline
// fixtures (tests/analyze_test.cpp).
#pragma once

#include <string>
#include <vector>

#include "obs/json.h"

namespace radiocast::analyze {

/// Schema tag of the JSON report; radiocast_inspect validates it.
inline constexpr char kSchema[] = "radiocast.analysis.v1";

/// One pass, for the report's pass table and the CLI's --passes listing.
struct pass_info {
  const char* id;       ///< annotation name, e.g. "hot-path"
  const char* summary;  ///< one-line description
};

/// The four passes P1–P4, in order.
const std::vector<pass_info>& passes();

/// True iff `id` names a known pass (valid in allow() annotations).
bool is_known_pass(const std::string& id);

/// One diagnostic. `suppressed` findings carry the annotation's
/// justification and do not affect the exit status.
struct finding {
  std::string pass;
  std::string path;
  int line = 0;
  std::string message;
  std::string snippet;        ///< offending source line, whitespace-trimmed
  bool suppressed = false;
  std::string justification;  ///< annotation text after "--"
};

/// The declared architecture: named layers in low→high order plus
/// longest-prefix path→layer assignments. Parsed from
/// tools/analyze/layers.manifest (format: `layer <name>` lines declare the
/// order, `path <prefix> <name>` lines assign files; `#` comments).
struct layer_manifest {
  std::vector<std::string> order;  ///< layer names, lowest first
  struct assignment {
    std::string prefix;  ///< repo-relative path prefix
    std::string layer;
  };
  std::vector<assignment> assignments;

  /// Rank of `layer` in the order (0 = lowest); −1 when unknown.
  int rank(const std::string& layer) const;
  /// Layer of `path` by longest matching prefix; "" when unassigned.
  std::string layer_for(const std::string& path) const;
};

/// Parses the manifest text. Malformed lines and assignments naming
/// undeclared layers are reported into `errors` (may be null).
layer_manifest parse_manifest(const std::string& text,
                              std::vector<std::string>* errors);

/// The built-in manifest (identical to tools/analyze/layers.manifest, the
/// committed source of truth the CLI prefers when present).
const layer_manifest& default_manifest();

/// One input file: repo-relative path with forward slashes, full text.
struct source_file {
  std::string path;
  std::string text;
};

/// One resolved #include edge of the include graph.
struct include_edge {
  std::string from;
  std::string to;
  int line = 0;  ///< line of the #include in `from`
};

/// Aggregated result over a scan.
struct report {
  std::vector<finding> findings;
  int files_scanned = 0;
  /// The include DAG over the scanned set (externals excluded), emitted in
  /// the JSON report: nodes are scanned files annotated with their layer.
  std::vector<std::string> nodes;
  std::vector<include_edge> edges;
  layer_manifest manifest;

  int unsuppressed_count() const;
  int suppressed_count() const;
};

/// Runs every pass over `files` (all files at once — the layering pass is
/// cross-file). Paths must be repo-relative with forward slashes; path
/// prefixes decide per-pass scoping exactly as in the lint.
report analyze_files(const std::vector<source_file>& files,
                     const layer_manifest& manifest);

/// Serializes `rep` as a radiocast.analysis.v1 document.
obs::json_value report_to_json(const report& rep);

}  // namespace radiocast::analyze
