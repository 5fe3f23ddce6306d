// Tests of the campaign subsystem (src/campaign/): manifest parsing and
// validation, the deterministic shard plan, the exec-layer shard lifecycle
// hooks, shard artifact round-trips including torn files, the
// interrupt/resume/merge bit-identity contract, and the perf-regression
// gate driven by radiocast_inspect regress.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <vector>

#include "campaign/artifact.h"
#include "campaign/campaign.h"
#include "campaign/checkpoint.h"
#include "campaign/manifest.h"
#include "campaign/regress.h"
#include "core/runner.h"
#include "exec/parallel_trials.h"
#include "graph/generators.h"
#include "obs/json.h"
#include "sim/simulator.h"

namespace radiocast {
namespace {

namespace fs = std::filesystem;
using campaign::manifest;

/// Fresh per-test scratch directory (deterministic path, no clocks).
fs::path test_dir(const std::string& name) {
  const fs::path dir =
      fs::temp_directory_path() / "radiocast_campaign_test" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

obs::json_value parse(const std::string& text) {
  std::string error;
  std::optional<obs::json_value> doc = obs::json_parse(text, &error);
  EXPECT_TRUE(doc.has_value()) << error;
  return doc.has_value() ? *doc : obs::json_value::object();
}

const char* kManifestText = R"({
  "schema": "radiocast.campaign.v1",
  "name": "test-sweep",
  "base_seed": 7,
  "trials_per_point": 4,
  "shard_size": 2,
  "threads": 2,
  "max_steps": 100000,
  "grid": [
    {"family": "complete-layered", "n": 48, "d": 6, "protocol": "decay"},
    {"family": "path", "n": 24, "protocol": "round-robin"}
  ]
})";

manifest test_manifest() {
  std::string error;
  std::optional<manifest> m =
      campaign::parse_manifest(parse(kManifestText), &error);
  EXPECT_TRUE(m.has_value()) << error;
  return *m;
}

/// Trial records must agree on every deterministic field (wall_ms is host
/// noise by contract).
void expect_same_records(const std::vector<trial_record>& a,
                         const std::vector<trial_record>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed) << i;
    EXPECT_EQ(a[i].completed, b[i].completed) << i;
    EXPECT_EQ(a[i].steps, b[i].steps) << i;
    EXPECT_EQ(a[i].informed_step, b[i].informed_step) << i;
    EXPECT_EQ(a[i].transmissions, b[i].transmissions) << i;
    EXPECT_EQ(a[i].collisions, b[i].collisions) << i;
    EXPECT_EQ(a[i].deliveries, b[i].deliveries) << i;
    EXPECT_EQ(a[i].crashed_nodes, b[i].crashed_nodes) << i;
    EXPECT_EQ(a[i].suppressed_deliveries, b[i].suppressed_deliveries) << i;
    EXPECT_EQ(a[i].churned_edges, b[i].churned_edges) << i;
  }
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

TEST(ManifestTest, ParsesAndRoundTripsThroughToJson) {
  const manifest m = test_manifest();
  EXPECT_EQ(m.name, "test-sweep");
  EXPECT_EQ(m.base_seed, 7u);
  EXPECT_EQ(m.trials_per_point, 4);
  EXPECT_EQ(m.shard_size, 2);
  EXPECT_EQ(m.threads, 2);
  ASSERT_EQ(m.grid.size(), 2u);
  EXPECT_EQ(m.grid[0].case_name(), "complete-layered/n=48/d=6/decay");
  EXPECT_EQ(m.grid[1].case_name(), "path/n=24/round-robin");

  std::string error;
  std::optional<manifest> again =
      campaign::parse_manifest(m.to_json(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->fingerprint(), m.fingerprint());
  EXPECT_EQ(again->to_json().dump(), m.to_json().dump());
}

TEST(ManifestTest, RejectsSchemaViolations) {
  auto rejects = [](const std::string& mutation, const std::string& why) {
    obs::json_value doc = parse(kManifestText);
    obs::json_value patch = parse(mutation);
    for (const auto& [key, v] : patch.members()) doc.set(key, v);
    std::string error;
    EXPECT_FALSE(campaign::parse_manifest(doc, &error).has_value()) << why;
    EXPECT_FALSE(error.empty()) << why;
  };
  rejects(R"({"schema": "radiocast.campaign.v2"})", "wrong schema tag");
  rejects(R"({"name": ""})", "empty name");
  rejects(R"({"trials_per_point": 0})", "no trials");
  rejects(R"({"max_steps": 0})", "no step budget");
  rejects(R"({"grid": []})", "empty grid");
  rejects(R"({"grid": [{"family": "torus", "n": 8, "protocol": "decay"}]})",
          "unknown family");
  rejects(R"({"grid": [{"family": "path", "n": 8, "protocol": "warp"}]})",
          "unknown protocol");
  rejects(R"({"grid": [{"family": "path", "n": 1, "protocol": "decay"}]})",
          "n too small");
  rejects(
      R"({"grid": [{"family": "complete-layered", "n": 8, "d": 9,
                    "protocol": "decay"}]})",
      "d out of range");
  rejects(R"({"grid": [{"family": "gnp", "n": 8, "p": 0.0,
                        "protocol": "decay"}]})",
          "gnp needs p in (0,1]");
  rejects(R"({"grid": [{"family": "path", "n": 8, "protocol": "kp"}]})",
          "kp needs known_d");
}

TEST(ManifestTest, FingerprintChangesWithContent) {
  const manifest m = test_manifest();
  manifest edited = m;
  edited.trials_per_point = 5;
  EXPECT_NE(edited.fingerprint(), m.fingerprint());
}

// ---------------------------------------------------------------------------
// Shard plan
// ---------------------------------------------------------------------------

TEST(PlanTest, CutsEveryPointIntoSeedOrderedSlices) {
  manifest m = test_manifest();
  m.trials_per_point = 5;  // 2 is not a divisor: last shard is smaller
  const std::vector<campaign::shard_plan> plan = campaign::plan_shards(m);
  ASSERT_EQ(plan.size(), 6u);  // ceil(5/2) = 3 shards per point
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].shard, static_cast<int>(i));
  }
  EXPECT_EQ(plan[0].point, 0);
  EXPECT_EQ(plan[2].point, 0);
  EXPECT_EQ(plan[3].point, 1);
  EXPECT_EQ(plan[2].first_trial, 4);
  EXPECT_EQ(plan[2].count, 1);
  EXPECT_EQ(plan[2].base_seed, 7u + 4u);
  // Every point reuses the same seed range — points differ by topology and
  // protocol, not by seeds.
  EXPECT_EQ(plan[3].first_trial, 0);
  EXPECT_EQ(plan[3].base_seed, 7u);
}

TEST(PlanTest, ShardSizeZeroMeansOneShardPerPoint) {
  manifest m = test_manifest();
  m.shard_size = 0;
  const std::vector<campaign::shard_plan> plan = campaign::plan_shards(m);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].count, m.trials_per_point);
  EXPECT_EQ(plan[1].count, m.trials_per_point);
}

// ---------------------------------------------------------------------------
// Exec shard lifecycle hooks
// ---------------------------------------------------------------------------

TEST(ShardHooksTest, OnDoneStreamsShardsInSeedOrder) {
  graph g = make_path(16);
  const auto proto = make_protocol("round-robin", 15);

  trial_options serial;
  serial.trials = 10;
  serial.base_seed = 3;
  const trial_set expected = run_trials(g, *proto, serial);

  std::mutex started_mu;
  int started = 0;
  std::vector<shard_info> done_order;
  std::vector<trial_record> streamed;

  trial_options opts = serial;
  opts.threads = 4;
  opts.shard_size = 3;  // 10 trials → shards of 3,3,3,1
  opts.hooks.on_start = [&](const shard_info&) {
    const std::lock_guard<std::mutex> lock(started_mu);
    ++started;
  };
  opts.hooks.on_done = [&](const shard_info& info, const trial_set& batch) {
    done_order.push_back(info);
    streamed.insert(streamed.end(), batch.trials.begin(),
                    batch.trials.end());
  };
  const trial_set folded = parallel_run_trials(g, *proto, opts);

  EXPECT_EQ(started, 4);
  ASSERT_EQ(done_order.size(), 4u);
  for (std::size_t i = 0; i < done_order.size(); ++i) {
    EXPECT_EQ(done_order[i].index, static_cast<int>(i));
  }
  EXPECT_EQ(done_order[3].first, 9);
  EXPECT_EQ(done_order[3].count, 1);
  EXPECT_EQ(done_order[3].base_seed, 3u + 9u);
  // The streamed concatenation AND the folded result both equal serial.
  expect_same_records(streamed, expected.trials);
  expect_same_records(folded.trials, expected.trials);
}

TEST(ShardHooksTest, DiscardRecordsReturnsAnEmptySet) {
  graph g = make_path(12);
  const auto proto = make_protocol("round-robin", 11);
  trial_options opts;
  opts.trials = 6;
  opts.base_seed = 1;
  opts.threads = 2;
  opts.shard_size = 2;
  opts.hooks.discard_records = true;
  int streamed = 0;
  opts.hooks.on_done = [&](const shard_info&, const trial_set& batch) {
    streamed += static_cast<int>(batch.trials.size());
  };
  const trial_set out = parallel_run_trials(g, *proto, opts);
  EXPECT_TRUE(out.trials.empty());
  EXPECT_EQ(streamed, 6);
}

TEST(ShardHooksTest, HooksForceShardPathEvenSingleThreaded) {
  graph g = make_path(12);
  const auto proto = make_protocol("round-robin", 11);
  trial_options opts;
  opts.trials = 4;
  opts.base_seed = 2;
  opts.threads = 1;
  opts.shard_size = 2;
  std::vector<int> firsts;
  opts.hooks.on_done = [&](const shard_info& info, const trial_set&) {
    firsts.push_back(info.first);
  };
  parallel_run_trials(g, *proto, opts);
  EXPECT_EQ(firsts, (std::vector<int>{0, 2}));
}

// ---------------------------------------------------------------------------
// Shard artifacts
// ---------------------------------------------------------------------------

TEST(ArtifactTest, TornFileYieldsCompletePrefixNotAnError) {
  const fs::path dir = test_dir("torn");
  const fs::path path = dir / "shard_0000.ndjson";
  campaign::shard_header h;
  h.campaign = "torn";
  h.shard = 0;
  h.point = 0;
  h.case_name = "path/n=8/decay";
  h.params = obs::json_value::object();
  h.first_trial = 0;
  h.trials = 4;
  h.base_seed = 1;
  trial_record t;
  t.completed = true;
  {
    std::ofstream out(path, std::ios::binary);
    campaign::header_record(h).write(out);
    out << '\n';
    t.seed = 1;
    campaign::trial_record_json(t).write(out);
    out << '\n';
    t.seed = 2;
    campaign::trial_record_json(t).write(out);
    out << '\n';
    out << "{\"record\":\"trial\",\"seed\":3,\"comp";  // torn mid-record
  }
  std::string error;
  const auto art = campaign::read_shard_file(path.string(), &error);
  ASSERT_TRUE(art.has_value()) << error;
  EXPECT_FALSE(art->complete);
  ASSERT_EQ(art->trials.size(), 2u);
  EXPECT_EQ(art->trials[1].seed, 2u);
}

TEST(ArtifactTest, OutOfOrderSeedsAreCorruption) {
  const fs::path dir = test_dir("out-of-order");
  const fs::path path = dir / "shard_0000.ndjson";
  campaign::shard_header h;
  h.campaign = "x";
  h.case_name = "c";
  h.params = obs::json_value::object();
  h.shard = 0;
  h.point = 0;
  h.first_trial = 0;
  h.trials = 2;
  h.base_seed = 1;
  trial_record t;
  {
    std::ofstream out(path, std::ios::binary);
    campaign::header_record(h).write(out);
    out << '\n';
    t.seed = 2;  // expected seed 1 first
    campaign::trial_record_json(t).write(out);
    out << '\n';
  }
  std::string error;
  EXPECT_FALSE(campaign::read_shard_file(path.string(), &error).has_value());
  EXPECT_NE(error.find("out of order"), std::string::npos) << error;
}

TEST(ArtifactTest, PreRecoveryTrialRecordsStillParse) {
  // Shards written before the recovery/partition fields existed carry no
  // recoveries/reachable_nodes/informed_reachable/outcome keys; they must
  // parse with defaults (outcome inferred from the completed flag) so
  // resumed campaigns keep their old shards.
  trial_record t;
  t.seed = 7;
  t.completed = false;
  t.steps = 64;
  const obs::json_value full = campaign::trial_record_json(t);
  obs::json_value old = obs::json_value::object();
  for (const auto& [key, member] : full.members()) {
    if (key == "recoveries" || key == "reachable_nodes" ||
        key == "informed_reachable" || key == "outcome") {
      continue;
    }
    old.set(key, member);
  }
  std::string error;
  const auto parsed = campaign::parse_trial(old, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->recoveries, 0);
  EXPECT_EQ(parsed->reachable_nodes, 0);
  EXPECT_EQ(parsed->informed_reachable, 0);
  EXPECT_EQ(parsed->outcome, run_outcome::stuck);

  // New-format records round-trip the outcome tag exactly…
  t.completed = true;
  t.outcome = run_outcome::source_lost;
  t.recoveries = 3;
  t.reachable_nodes = 5;
  t.informed_reachable = 5;
  const auto fresh = campaign::parse_trial(campaign::trial_record_json(t));
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->outcome, run_outcome::source_lost);
  EXPECT_EQ(fresh->recoveries, 3);
  EXPECT_EQ(fresh->reachable_nodes, 5);
  EXPECT_EQ(fresh->informed_reachable, 5);

  // …and a present-but-bogus tag is corruption, not a default.
  obs::json_value bogus = campaign::trial_record_json(t);
  bogus.set("outcome", "exploded");
  EXPECT_FALSE(campaign::parse_trial(bogus, &error).has_value());
  EXPECT_NE(error.find("outcome"), std::string::npos) << error;
}

TEST(ArtifactTest, WallClockKeyClassifier) {
  EXPECT_TRUE(campaign::is_wall_clock_key("wall_ms"));
  EXPECT_TRUE(campaign::is_wall_clock_key("batch_wall_ms"));
  EXPECT_TRUE(campaign::is_wall_clock_key("reference_min_ms"));
  EXPECT_TRUE(campaign::is_wall_clock_key("speedup"));
  EXPECT_TRUE(campaign::is_wall_clock_key("soa_speedup"));
  EXPECT_TRUE(campaign::is_wall_clock_key("det_soa_speedup"));
  EXPECT_TRUE(campaign::is_wall_clock_key("off_over_on"));
  EXPECT_TRUE(campaign::is_wall_clock_key("steps_per_sec_frontier"));
  EXPECT_FALSE(campaign::is_wall_clock_key("steps"));
  EXPECT_FALSE(campaign::is_wall_clock_key("timeout_rate"));
  EXPECT_FALSE(campaign::is_wall_clock_key("transmissions"));

  obs::json_value doc = parse(
      R"({"steps": 3, "wall_ms": 1.5,
          "nested": {"speedup": 2.0, "seed": 4},
          "list": [{"batch_wall_ms": 9, "ok": true}]})");
  const std::string stripped = campaign::strip_wall_clock_keys(doc).dump();
  EXPECT_EQ(stripped,
            R"({"steps":3,"nested":{"seed":4},"list":[{"ok":true}]})");
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

TEST(CheckpointTest, MarksAndPersistsAtomically) {
  const fs::path dir = test_dir("checkpoint");
  const std::string path = (dir / "checkpoint.json").string();
  campaign::checkpoint cp;
  cp.campaign = "cp";
  cp.manifest_fingerprint = 99;
  cp.total_shards = 5;
  cp.mark_completed(3);
  cp.mark_completed(0);
  cp.mark_completed(3);  // idempotent
  EXPECT_EQ(cp.completed, (std::vector<int>{0, 3}));
  EXPECT_TRUE(cp.is_completed(0));
  EXPECT_FALSE(cp.is_completed(1));
  campaign::save_checkpoint(cp, path);
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  std::string error;
  const auto loaded = campaign::load_checkpoint(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->campaign, "cp");
  EXPECT_EQ(loaded->manifest_fingerprint, 99u);
  EXPECT_EQ(loaded->total_shards, 5);
  EXPECT_EQ(loaded->completed, (std::vector<int>{0, 3}));
  EXPECT_GT(loaded->updated_unix_ms, 0);

  // Missing file: empty error (a fresh campaign, not a failure).
  error = "sentinel";
  EXPECT_FALSE(
      campaign::load_checkpoint((dir / "nope.json").string(), &error)
          .has_value());
  EXPECT_TRUE(error.empty());
}

// ---------------------------------------------------------------------------
// Run / resume / merge
// ---------------------------------------------------------------------------

TEST(CampaignTest, InterruptedResumeMergesBitIdenticallyToUninterrupted) {
  const manifest m = test_manifest();
  const fs::path dir_a = test_dir("resume-a");
  const fs::path dir_b = test_dir("resume-b");

  // A: stop after two shards, then resume to completion.
  campaign::campaign_options opts_a;
  opts_a.out_dir = dir_a.string();
  opts_a.stop_after = 2;
  campaign::campaign_result first = campaign::run_campaign(m, opts_a);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.executed, 2);
  EXPECT_FALSE(first.finished);
  // The merge must refuse a half-done campaign.
  std::string error;
  EXPECT_FALSE(
      campaign::merge_campaign(m, dir_a.string(), &error).has_value());
  EXPECT_FALSE(error.empty());

  opts_a.stop_after = -1;
  campaign::campaign_result second = campaign::run_campaign(m, opts_a);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.skipped, 2);
  EXPECT_EQ(second.executed, 2);
  EXPECT_TRUE(second.finished);

  // B: one uninterrupted pass, serial this time (threads must not matter).
  manifest serial = m;
  serial.threads = 1;
  campaign::campaign_options opts_b;
  opts_b.out_dir = dir_b.string();
  campaign::campaign_result only = campaign::run_campaign(serial, opts_b);
  ASSERT_TRUE(only.ok) << only.error;
  EXPECT_TRUE(only.finished);

  const auto merged_a = campaign::merge_campaign(m, dir_a.string(), &error);
  ASSERT_TRUE(merged_a.has_value()) << error;
  const auto merged_b =
      campaign::merge_campaign(serial, dir_b.string(), &error);
  ASSERT_TRUE(merged_b.has_value()) << error;
  // The config block echoes the manifest (including its thread count), so
  // compare the measurement payload: every case, trial, and statistic must
  // be byte-identical once wall-clock keys are stripped.
  EXPECT_EQ(campaign::strip_wall_clock_keys(*merged_a->find("cases")).dump(),
            campaign::strip_wall_clock_keys(*merged_b->find("cases")).dump());
}

TEST(CampaignTest, MergedTrialsMatchAMonolithicBatch) {
  const manifest m = test_manifest();
  const fs::path dir = test_dir("monolithic");
  campaign::campaign_options opts;
  opts.out_dir = dir.string();
  ASSERT_TRUE(campaign::run_campaign(m, opts).ok);
  std::string error;
  const auto merged = campaign::merge_campaign(m, dir.string(), &error);
  ASSERT_TRUE(merged.has_value()) << error;

  for (std::size_t point = 0; point < m.grid.size(); ++point) {
    graph g = campaign::build_graph(m.grid[point]);
    const auto proto = campaign::build_protocol(m.grid[point]);
    trial_options topts;
    topts.trials = m.trials_per_point;
    topts.base_seed = m.base_seed;
    topts.max_steps = m.max_steps;
    const trial_set expected = run_trials(g, *proto, topts);

    const obs::json_value& c = merged->find("cases")->items()[point];
    EXPECT_EQ(c.find("name")->as_string(),
              m.grid[point].case_name());
    const obs::json_value* trials = c.find("trials");
    ASSERT_EQ(trials->items().size(), expected.trials.size());
    for (std::size_t i = 0; i < expected.trials.size(); ++i) {
      const obs::json_value& t = trials->items()[i];
      EXPECT_EQ(t.find("seed")->as_int(),
                static_cast<std::int64_t>(expected.trials[i].seed));
      EXPECT_EQ(t.find("steps")->as_int(), expected.trials[i].steps);
      EXPECT_EQ(t.find("transmissions")->as_int(),
                expected.trials[i].transmissions);
    }
  }
}

TEST(CampaignTest, EditedManifestIsRejectedUntilFresh) {
  const manifest m = test_manifest();
  const fs::path dir = test_dir("fingerprint");
  campaign::campaign_options opts;
  opts.out_dir = dir.string();
  opts.stop_after = 1;
  ASSERT_TRUE(campaign::run_campaign(m, opts).ok);

  manifest edited = m;
  edited.trials_per_point = 6;
  opts.stop_after = -1;
  const campaign::campaign_result rejected =
      campaign::run_campaign(edited, opts);
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.error.find("fingerprint"), std::string::npos)
      << rejected.error;

  opts.fresh = true;
  const campaign::campaign_result restarted =
      campaign::run_campaign(edited, opts);
  ASSERT_TRUE(restarted.ok) << restarted.error;
  EXPECT_TRUE(restarted.finished);
  EXPECT_EQ(restarted.skipped, 0);
}

TEST(CampaignTest, DeletedShardArtifactIsReExecuted) {
  const manifest m = test_manifest();
  const fs::path dir = test_dir("deleted-shard");
  campaign::campaign_options opts;
  opts.out_dir = dir.string();
  ASSERT_TRUE(campaign::run_campaign(m, opts).ok);

  fs::remove(dir / "shards" / campaign::shard_file_name(1));
  const campaign::campaign_result again = campaign::run_campaign(m, opts);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.executed, 1);
  EXPECT_EQ(again.skipped, 3);
  EXPECT_TRUE(again.finished);
  std::string error;
  EXPECT_TRUE(campaign::merge_campaign(m, dir.string(), &error).has_value())
      << error;
}

// ---------------------------------------------------------------------------
// Regression gate
// ---------------------------------------------------------------------------

struct bench_shape {
  double mean = 120.0;
  double timeout_rate = 0.0;
  double speedup = 4.0;
  std::int64_t steps = 100;
  std::string name = "c1";
  double frontier_ms = 3.0;
};

obs::json_value bench_doc(const bench_shape& s) {
  std::ostringstream ss;
  ss << R"({"schema":"radiocast.bench.v1","bench":"b","config":{},)"
     << R"("cases":[{"name":")" << s.name << R"(","params":{},"trials":[],)"
     << R"("timeout_rate":)" << s.timeout_rate << R"(,"wall_ms":1.0,)"
     << R"("steps":{"mean":)" << s.mean << R"(},)"
     << R"("values":{"steps":)" << s.steps << R"(,"speedup":)" << s.speedup
     << R"(,"frontier_min_ms":)" << s.frontier_ms << R"(}}],"spans":[]})";
  std::string error;
  const auto doc = obs::json_parse(ss.str(), &error);
  EXPECT_TRUE(doc.has_value()) << error;
  return *doc;
}

std::string first_problem(const campaign::regress_report& report) {
  return report.problems.empty() ? std::string{} : report.problems.front();
}

TEST(RegressTest, IdenticalRunsPass) {
  const auto base = bench_doc({});
  const auto report = campaign::run_regress(base, base, {});
  EXPECT_TRUE(report.ok) << first_problem(report);
  EXPECT_EQ(report.comparisons, 4);  // mean, timeout_rate, steps, speedup
}

TEST(RegressTest, StepsMeanIsExactByDefault) {
  const auto base = bench_doc({});
  const auto fresh = bench_doc({.mean = 121.0});
  const auto report = campaign::run_regress(base, fresh, {});
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.problems.size(), 1u);
  EXPECT_NE(report.problems[0].find("steps.mean"), std::string::npos);

  campaign::regress_options loose;
  loose.tolerances.emplace_back("steps.mean", 5.0);
  EXPECT_TRUE(campaign::run_regress(base, fresh, loose).ok);
  // A lower mean is a drift too: seed-fixed step counts move only when the
  // algorithm changes. The override widens the gate both ways.
  const auto lower = bench_doc({.mean = 119.0});
  EXPECT_FALSE(campaign::run_regress(base, lower, {}).ok);
  EXPECT_TRUE(campaign::run_regress(base, lower, loose).ok);
  EXPECT_FALSE(
      campaign::run_regress(base, bench_doc({.mean = 90.0}), loose).ok);
}

TEST(RegressTest, ThroughputKeysGetWideTolerance) {
  const auto base = bench_doc({});
  // 40% drop: inside the 50% default.
  EXPECT_TRUE(campaign::run_regress(base, bench_doc({.speedup = 2.4}), {}).ok);
  // 55% drop: regression.
  const auto report =
      campaign::run_regress(base, bench_doc({.speedup = 1.8}), {});
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.problems.size(), 1u);
  EXPECT_NE(report.problems[0].find("speedup"), std::string::npos);
  // Tightening via override.
  campaign::regress_options tight;
  tight.tolerances.emplace_back("speedup", 5.0);
  EXPECT_FALSE(
      campaign::run_regress(base, bench_doc({.speedup = 3.5}), tight).ok);
}

TEST(RegressTest, ExactAndStructuralChecks) {
  const auto base = bench_doc({});
  // values.steps must match exactly.
  EXPECT_FALSE(campaign::run_regress(base, bench_doc({.steps = 101}), {}).ok);
  // A timeout appearing where the baseline had none is a regression.
  EXPECT_FALSE(
      campaign::run_regress(base, bench_doc({.timeout_rate = 0.25}), {}).ok);
  // A baseline case missing from the fresh run is a regression.
  const auto report =
      campaign::run_regress(base, bench_doc({.name = "other"}), {});
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.problems.size(), 1u);
  EXPECT_NE(report.problems[0].find("missing"), std::string::npos);
  // Raw wall-clock values never participate.
  EXPECT_TRUE(
      campaign::run_regress(base, bench_doc({.frontier_ms = 999.0}), {}).ok);
}

}  // namespace
}  // namespace radiocast
