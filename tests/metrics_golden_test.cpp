// Golden metrics exports: every protocol's exact metrics registry, pinned.
//
// Each case runs a small seeded trial batch of one protocol with a metrics
// registry attached and compares an FNV-1a digest of the registry's JSON
// export — every counter, gauge value and write count, histogram bucket and
// per-step series — against a recorded value. Each batch runs fault-free
// and under amnesia recovery plus loss, and each runs both serially
// (run_trials) and through parallel_run_trials at 4 threads, whose seed-
// ordered merge must reproduce the serial registry byte for byte.
//
// The digests were recorded once and must not be edited to follow a
// change: a rework of how protocols write their metrics is only correct if
// this test passes unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/dfs_known.h"
#include "core/runner.h"
#include "exec/parallel_trials.h"
#include "fault/loss.h"
#include "fault/recovery.h"
#include "graph/analysis.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace radiocast {
namespace {

std::string digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[h & 0xf];
    h >>= 4;
  }
  return out;
}

struct named_graph {
  std::string name;
  graph g;
};

std::vector<named_graph> fixed_graphs() {
  std::vector<named_graph> out;
  out.push_back({"layered", make_complete_layered_uniform(64, 4)});
  rng gnp_gen(11);
  out.push_back({"gnp", make_gnp_connected(48, 6.0 / 48, gnp_gen)});
  return out;
}

// Every make_protocol name, plus the known-neighborhood DFS baseline.
std::vector<std::pair<std::string, std::unique_ptr<protocol>>> protocols_for(
    const graph& g) {
  const node_id r = g.node_count() - 1;
  const int d = radius_from(g);
  std::vector<std::pair<std::string, std::unique_ptr<protocol>>> out;
  for (const std::string& name : protocol_names()) {
    const int arg = name == "selective" ? max_degree(g) + 1 : d;
    out.emplace_back(name, make_protocol(name, r, arg));
  }
  out.emplace_back("dfs-known", std::make_unique<dfs_known_protocol>(g));
  return out;
}

// One batch's options: 6 trials from seed 7, at most 3000 steps each.
// Deterministic protocols run until every node halts, so the token
// protocols finish their traversal and write their end-of-subtree metrics.
trial_options batch_options(const protocol& proto,
                            obs::metrics_registry* reg) {
  trial_options opts;
  opts.trials = 6;
  opts.base_seed = 7;
  opts.max_steps = 3000;
  opts.metrics = reg;
  if (proto.deterministic()) opts.stop = stop_condition::all_halted;
  return opts;
}

// The export digest of one batch, serial (threads = 1) or over 4 trial
// workers.
std::string batch_digest(const graph& g, const protocol& proto,
                         fault::fault_model* faults, int threads) {
  obs::metrics_registry reg;
  trial_options opts = batch_options(proto, &reg);
  opts.faults = faults;
  opts.threads = threads;
  if (threads <= 1) {
    run_trials(g, proto, opts);
  } else {
    parallel_run_trials(g, proto, opts);
  }
  return digest(reg.to_json().dump());
}

std::vector<std::string> actual_lines(int threads) {
  std::vector<std::string> lines;
  for (const named_graph& ng : fixed_graphs()) {
    for (const auto& [pname, proto] : protocols_for(ng.g)) {
      const std::string base = pname + "/" + ng.name;
      lines.push_back(base + "/free " +
                      batch_digest(ng.g, *proto, nullptr, threads));

      fault::recovery_options ro;
      ro.schedule = {{1, 3}, {4, 5}, {7, 9}, {0, 12}};
      ro.crash_probability = 0.002;
      ro.mode = fault::recovery_mode::amnesia;
      ro.downtime = 4;
      fault::recovery_model recovery(ro);
      fault::loss_model loss(fault::loss_options{0.1});
      fault::composite_fault_model faults({&recovery, &loss});
      lines.push_back(base + "/amnesia+loss " +
                      batch_digest(ng.g, *proto, &faults, threads));
    }
  }
  return lines;
}

const std::vector<std::string> kExpected = {
  "decay/layered/free d6ed3ddee092fa6b",
  "decay/layered/amnesia+loss 8ca10ac446c75c3c",
  "kp/layered/free 2d41294fa79b91ca",
  "kp/layered/amnesia+loss a3fb0f8ea7f2c0fa",
  "kp-doubling/layered/free 4e34bb61112112d6",
  "kp-doubling/layered/amnesia+loss 28130fdf99358f88",
  "kp-ablated/layered/free 59dd1247f3b68cd5",
  "kp-ablated/layered/amnesia+loss af52ed5d92d45f5f",
  "round-robin/layered/free cbf7df9571d61d42",
  "round-robin/layered/amnesia+loss 0b17b6fb1f820488",
  "select-and-send/layered/free 1fd6ed7717b92844",
  "select-and-send/layered/amnesia+loss 95c98abc5613459a",
  "complete-layered/layered/free cb387c9375edccac",
  "complete-layered/layered/amnesia+loss a72f04b28932004c",
  "interleaved/layered/free 6e45e2a430b23943",
  "interleaved/layered/amnesia+loss 486622f97bb6741a",
  "selective/layered/free 290bd8b12547ecb3",
  "selective/layered/amnesia+loss 2a55ed2cc27f9146",
  "dfs-known/layered/free fb75bca6efb2757a",
  "dfs-known/layered/amnesia+loss f2c2adc32467f11c",
  "decay/gnp/free ce93930228f289c8",
  "decay/gnp/amnesia+loss 64531131fc5939f2",
  "kp/gnp/free 6b725aea23a83568",
  "kp/gnp/amnesia+loss 31a721af59986a21",
  "kp-doubling/gnp/free a224277fc7228e70",
  "kp-doubling/gnp/amnesia+loss 7f8ac7e639c2a6d7",
  "kp-ablated/gnp/free 85e7de7322419aba",
  "kp-ablated/gnp/amnesia+loss 3921321bd164f908",
  "round-robin/gnp/free cb1d3535aad51bcc",
  "round-robin/gnp/amnesia+loss 649d3a63d5489857",
  "select-and-send/gnp/free deffeb5559dd217c",
  "select-and-send/gnp/amnesia+loss 13f4553c0fef07db",
  "complete-layered/gnp/free bd6cb81b06578504",
  "complete-layered/gnp/amnesia+loss fccb4e9ec7262e37",
  "interleaved/gnp/free 2fed49a2c0843839",
  "interleaved/gnp/amnesia+loss 9d899de5d4f54e32",
  "selective/gnp/free 21b1dbe2d07e0e13",
  "selective/gnp/amnesia+loss db9f059036bb2dd5",
  "dfs-known/gnp/free 453e956d3c54be1d",
  "dfs-known/gnp/amnesia+loss cc647d5de55e8722",
};

void expect_golden(int threads) {
  const std::vector<std::string> actual = actual_lines(threads);
  std::string dump;
  for (const std::string& line : actual) dump += "  \"" + line + "\",\n";
  ASSERT_EQ(actual.size(), kExpected.size()) << dump;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], kExpected[i]) << "line " << i;
  }
}

TEST(MetricsGoldenTest, SerialExportsMatchTheRecordedDigests) {
  expect_golden(1);
}

TEST(MetricsGoldenTest, ParallelMergedExportsMatchTheRecordedDigests) {
  expect_golden(4);
}

// The digests only guard what the batches write: every protocol-side
// instrument family must appear in at least one of them.
TEST(MetricsGoldenTest, BatchesCoverEveryProtocolInstrument) {
  const graph g = make_complete_layered_uniform(64, 4);
  const node_id r = g.node_count() - 1;
  const int d = radius_from(g);
  obs::metrics_registry reg;
  for (const std::string name : {"decay", "kp", "kp-doubling",
                                 "select-and-send"}) {
    const auto proto = make_protocol(name, r, d);
    run_trials(g, *proto, batch_options(*proto, &reg));
  }
  for (const std::string key :
       {"decay.stage_tx{0}", "kp.tx{geometric}", "kp.tx{universal}",
        "kp.tx{source_step}", "sas.first_visits", "sas.token_hops",
        "sas.selections", "sas.subtrees_completed",
        "echo.segments{full_probe}", "echo.segments{doubling}",
        "echo.segments{binary}"}) {
    EXPECT_NE(reg.counters().count(key), 0u) << key;
  }
  for (const std::string key : {"decay.phase", "kp.block_log_d", "kp.stage"}) {
    EXPECT_NE(reg.gauges().count(key), 0u) << key;
  }
  for (const std::string key :
       {"decay.cutoff", "sas.segments_per_selection"}) {
    EXPECT_NE(reg.histograms().count(key), 0u) << key;
  }
}

}  // namespace
}  // namespace radiocast
