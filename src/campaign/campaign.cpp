#include "campaign/campaign.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <utility>

#include "campaign/artifact.h"
#include "campaign/checkpoint.h"
#include "exec/parallel_trials.h"
#include "util/assert.h"

namespace radiocast::campaign {

namespace fs = std::filesystem;

std::vector<shard_plan> plan_shards(const manifest& m) {
  RC_REQUIRE(m.trials_per_point >= 1);
  const int slice = m.shard_size > 0 ? m.shard_size : m.trials_per_point;
  std::vector<shard_plan> plan;
  int id = 0;
  for (int point = 0; point < static_cast<int>(m.grid.size()); ++point) {
    for (int first = 0; first < m.trials_per_point; first += slice) {
      shard_plan s;
      s.shard = id++;
      s.point = point;
      s.first_trial = first;
      s.count = std::min(slice, m.trials_per_point - first);
      s.base_seed = m.base_seed + static_cast<std::uint64_t>(first);
      plan.push_back(s);
    }
  }
  return plan;
}

std::string shard_file_name(int shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard_%04d.ndjson", shard);
  return buf;
}

namespace {

std::string shard_path(const std::string& out_dir, int shard) {
  return out_dir + "/shards/" + shard_file_name(shard);
}

shard_header make_header(const manifest& m, const shard_plan& s) {
  shard_header h;
  h.campaign = m.name;
  h.shard = s.shard;
  h.point = s.point;
  h.case_name = m.grid[static_cast<std::size_t>(s.point)].case_name();
  h.params = m.grid[static_cast<std::size_t>(s.point)].to_json();
  h.first_trial = s.first_trial;
  h.trials = s.count;
  h.base_seed = s.base_seed;
  return h;
}

/// Executes one shard: streams header + trial lines + footer to a `.tmp`
/// file (records retire in seed order through the exec hooks and are
/// discarded from memory), then renames the artifact into place.
void execute_shard(const manifest& m, const shard_plan& s,
                   const std::string& out_dir, const graph& g,
                   const protocol& proto) {
  const std::string final_path = shard_path(out_dir, s.shard);
  const std::string tmp_path = final_path + ".tmp";
  std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
  RC_CHECK_MSG(static_cast<bool>(out),
               "cannot open shard temp file " + tmp_path);
  header_record(make_header(m, s)).write(out);
  out << '\n';

  int written = 0;
  trial_options topts;
  topts.trials = s.count;
  topts.base_seed = s.base_seed;
  topts.max_steps = m.max_steps;
  topts.threads = m.threads;
  topts.hooks.discard_records = true;
  topts.hooks.on_done = [&out, &written](const shard_info&,
                                         const trial_set& batch) {
    for (const trial_record& t : batch.trials) {
      trial_record_json(t).write(out);
      out << '\n';
      ++written;
    }
  };
  parallel_run_trials(g, proto, topts);
  RC_CHECK_MSG(written == s.count, "shard streamed a partial trial batch");

  footer_record(s.shard, written).write(out);
  out << '\n';
  out.flush();
  RC_CHECK_MSG(static_cast<bool>(out),
               "short write to shard temp file " + tmp_path);
  out.close();
  RC_CHECK_MSG(std::rename(tmp_path.c_str(), final_path.c_str()) == 0,
               "cannot rename " + tmp_path + " over " + final_path);
}

}  // namespace

campaign_result run_campaign(const manifest& m,
                             const campaign_options& opts) {
  campaign_result result;
  auto fail = [&result](const std::string& why) {
    result.ok = false;
    result.error = why;
    return result;
  };
  try {
    const std::vector<shard_plan> plan = plan_shards(m);
    result.total_shards = static_cast<int>(plan.size());

    fs::create_directories(fs::path(opts.out_dir) / "shards");
    const std::string cp_path = opts.out_dir + "/checkpoint.json";

    checkpoint cp;
    cp.campaign = m.name;
    cp.manifest_fingerprint = m.fingerprint();
    cp.total_shards = result.total_shards;
    if (opts.fresh) {
      std::error_code ec;
      fs::remove(cp_path, ec);
      for (const shard_plan& s : plan) {
        fs::remove(shard_path(opts.out_dir, s.shard), ec);
      }
    } else {
      std::string cp_error;
      std::optional<checkpoint> loaded = load_checkpoint(cp_path, &cp_error);
      if (!loaded && !cp_error.empty()) return fail(cp_error);
      if (loaded) {
        if (loaded->manifest_fingerprint != cp.manifest_fingerprint) {
          return fail(
              "checkpoint was written by a different manifest "
              "(fingerprint mismatch) — rerun with --fresh to discard it");
        }
        if (loaded->total_shards != cp.total_shards) {
          return fail("checkpoint shard count disagrees with the plan");
        }
        cp = std::move(*loaded);
      }
    }

    // Cache the point's topology/protocol across its consecutive shards.
    int built_point = -1;
    std::optional<graph> g;
    std::unique_ptr<protocol> proto;

    for (const shard_plan& s : plan) {
      // A shard counts as done only when BOTH the checkpoint lists it and
      // its artifact file survives — a deleted artifact is re-run.
      if (cp.is_completed(s.shard) &&
          fs::exists(shard_path(opts.out_dir, s.shard))) {
        ++result.skipped;
        continue;
      }
      if (opts.stop_after >= 0 && result.executed >= opts.stop_after) {
        result.ok = true;
        return result;  // clean interruption: checkpoint already durable
      }
      if (s.point != built_point) {
        const grid_point& point = m.grid[static_cast<std::size_t>(s.point)];
        g.emplace(build_graph(point));
        proto = build_protocol(point);
        built_point = s.point;
      }
      execute_shard(m, s, opts.out_dir, *g, *proto);
      cp.mark_completed(s.shard);
      save_checkpoint(cp, cp_path);
      ++result.executed;
      if (opts.log != nullptr) {
        *opts.log << "[campaign] shard " << s.shard + 1 << "/"
                  << result.total_shards << " done ("
                  << m.grid[static_cast<std::size_t>(s.point)].case_name()
                  << " trials " << s.first_trial << ".."
                  << s.first_trial + s.count - 1 << ")\n";
      }
    }
    result.ok = true;
    result.finished =
        result.skipped + result.executed == result.total_shards;
    return result;
  } catch (const std::exception& e) {
    return fail(e.what());
  }
}

std::optional<obs::json_value> merge_campaign(const manifest& m,
                                              const std::string& out_dir,
                                              std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<obs::json_value> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  const std::vector<shard_plan> plan = plan_shards(m);

  obs::json_value cases = obs::json_value::array();
  std::size_t next = 0;
  for (int point = 0; point < static_cast<int>(m.grid.size()); ++point) {
    const grid_point& gp = m.grid[static_cast<std::size_t>(point)];
    trial_set merged;
    merged.trials.reserve(static_cast<std::size_t>(m.trials_per_point));
    // Fold this point's shards in seed order — the same order the serial
    // fold of parallel_run_trials uses, which is what makes the merged
    // document independent of interruption history and thread count.
    for (; next < plan.size() && plan[next].point == point; ++next) {
      const shard_plan& s = plan[next];
      const std::string path = out_dir + "/shards/" + shard_file_name(s.shard);
      std::string detail;
      std::optional<shard_artifact> art = read_shard_file(path, &detail);
      if (!art) return fail(detail);
      if (!art->complete) {
        return fail(path + ": shard is incomplete (no confirming footer) — "
                    "rerun the campaign before merging");
      }
      if (art->header.point != s.point ||
          art->header.first_trial != s.first_trial ||
          art->header.trials != s.count ||
          art->header.base_seed != s.base_seed ||
          art->header.case_name != gp.case_name()) {
        return fail(path + ": shard header disagrees with the manifest plan");
      }
      merged.trials.insert(merged.trials.end(), art->trials.begin(),
                           art->trials.end());
    }
    if (static_cast<int>(merged.trials.size()) != m.trials_per_point) {
      return fail(gp.case_name() + ": merged " +
                  std::to_string(merged.trials.size()) + " trials, expected " +
                  std::to_string(m.trials_per_point));
    }

    cases.push_back(trial_case_json(gp.case_name(), gp.to_json(), merged));
  }

  obs::json_value doc = obs::json_value::object();
  doc.set("schema", "radiocast.bench.v1");
  doc.set("bench", m.name);
  obs::json_value config = obs::json_value::object();
  config.set("campaign", m.name);
  config.set("base_seed", static_cast<std::int64_t>(m.base_seed));
  config.set("trials_per_point", m.trials_per_point);
  config.set("shard_size",
             m.shard_size > 0 ? m.shard_size : m.trials_per_point);
  config.set("threads", m.threads);
  config.set("max_steps", m.max_steps);
  config.set("points", static_cast<std::int64_t>(m.grid.size()));
  config.set("shards", static_cast<std::int64_t>(plan.size()));
  doc.set("config", std::move(config));
  doc.set("cases", std::move(cases));
  doc.set("spans", obs::json_value::array());
  return doc;
}

}  // namespace radiocast::campaign
