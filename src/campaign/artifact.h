// Shard artifacts — the durable telemetry unit of a campaign.
//
// Each shard (a contiguous seed sub-range of one grid point) streams its
// trial records to `shards/shard_NNNN.ndjson` as they complete, one JSON
// document per line (schema "radiocast.shard.v1"). Three record types,
// discriminated by the "record" key:
//
//   header  {"record":"header","schema":"radiocast.shard.v1",
//            "campaign":…,"shard":id,"point":i,"case":…,"params":{…},
//            "first_trial":f,"trials":k,"base_seed":s}
//   trial   {"seed":…,"completed":…,"steps":…,"informed_step":…,
//            "transmissions":…,"collisions":…,"deliveries":…,"wall_ms":…,
//            "crashed_nodes":…,"suppressed_deliveries":…,
//            "churned_edges":…,"recoveries":…,"reachable_nodes":…,
//            "informed_reachable":…,"outcome":…,"record":"trial"}
//   footer  {"record":"footer","shard":id,"trials_written":k}
//
// The footer doubles as a completeness marker: a reader that never sees it
// (or sees a trial count that disagrees) is looking at a torn file. Trial
// lines are byte-stable across thread counts and across interruption —
// only the wall_ms value is host noise — which is what makes the merge
// deterministic (docs/CAMPAIGNS.md).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "obs/json.h"
#include "sim/simulator.h"

namespace radiocast::campaign {

/// Schema tag carried by every shard header.
inline constexpr char kShardSchema[] = "radiocast.shard.v1";

/// Parsed shard header.
struct shard_header {
  std::string campaign;
  int shard = -1;        ///< campaign-global shard id
  int point = -1;        ///< index into the manifest grid
  std::string case_name;
  obs::json_value params;
  int first_trial = 0;   ///< index of the shard's first trial in its point
  int trials = 0;
  std::uint64_t base_seed = 0;  ///< seed of the shard's first trial
};

// ----- record encoding (writer side) -----

obs::json_value header_record(const shard_header& h);
/// A shard trial line: the trial's fields exactly as trial_case_json
/// writes them into a case's "trials" array, plus "record":"trial".
obs::json_value trial_record_json(const trial_record& t);
obs::json_value footer_record(int shard, int trials_written);

/// One radiocast.bench.v1 case over a trial batch: name, params, trials,
/// timeout_rate, wall_ms and the completion-steps summary. bench::reporter
/// and merge_campaign both write their cases through it.
obs::json_value trial_case_json(const std::string& name,
                                obs::json_value params,
                                const trial_set& batch);

// ----- record decoding (reader side) -----

std::optional<shard_header> parse_header(const obs::json_value& doc,
                                         std::string* error = nullptr);
std::optional<trial_record> parse_trial(const obs::json_value& doc,
                                        std::string* error = nullptr);

/// A shard file read back: header, the trial records in seed order, and
/// whether the footer confirmed the file is complete.
struct shard_artifact {
  shard_header header;
  std::vector<trial_record> trials;
  bool complete = false;  ///< footer seen and counts agree
};

/// Reads one shard NDJSON file. Returns std::nullopt (with a diagnostic)
/// only on hard corruption — unreadable file, malformed interior line,
/// records out of order. A torn tail (interrupted writer) yields the
/// complete prefix with complete == false.
std::optional<shard_artifact> read_shard_file(const std::string& path,
                                              std::string* error = nullptr);

/// True for key names that carry host wall-clock (or quantities derived
/// from it): "wall_ms", "batch_wall_ms", any "*_ms", "speedup",
/// "off_over_on", "steps_per_sec_*". These are the keys excluded from
/// bit-identity comparisons and from `radiocast_inspect diff` by default.
bool is_wall_clock_key(const std::string& key);

/// Deep-copies `v` with every object member whose key satisfies
/// is_wall_clock_key removed — the canonical "wall-clock keys excepted"
/// form used by the resume bit-identity test and CI stage.
obs::json_value strip_wall_clock_keys(const obs::json_value& v);

}  // namespace radiocast::campaign
