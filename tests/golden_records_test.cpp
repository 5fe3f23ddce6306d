// Golden trial records: every protocol's exact behavior, pinned.
//
// Each case runs one broadcast on a small fixed graph at a fixed seed and
// compares the whole trial record — steps, informed_step, transmissions,
// collisions, deliveries, fault accounting, the outcome, and a digest of
// the per-node informed_at vector — against a recorded line. Any change to
// a protocol's decisions, to its RNG draw sequence, or to the simulator's
// radio semantics moves at least one line. The table also pins the
// lower-bound adversary's construction and two paper-scale numbers from
// the bench smoke configuration (ROADMAP: Select-and-Send at n=1024, D=16
// informs everyone after 48,340 steps; Complete-Layered after 845).
//
// The expected lines were recorded once and must not be edited to follow
// a behavior change: a protocol refactor is only correct if this test
// passes unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adversary/lower_bound_builder.h"
#include "core/dfs_known.h"
#include "core/runner.h"
#include "fault/loss.h"
#include "fault/recovery.h"
#include "graph/analysis.h"
#include "graph/generators.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace radiocast {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::int64_t value) {
  auto x = static_cast<std::uint64_t>(value);
  for (int i = 0; i < 8; ++i) {
    h ^= (x & 0xff);
    h *= 0x100000001b3ULL;
    x >>= 8;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::string hex(std::uint64_t h) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[h & 0xf];
    h >>= 4;
  }
  return out;
}

std::string record_line(const std::string& name, const run_result& r) {
  std::uint64_t h = kFnvBasis;
  for (const std::int64_t t : r.informed_at) h = fnv1a(h, t);
  return name + " c=" + std::to_string(r.completed ? 1 : 0) +
         " s=" + std::to_string(r.steps) +
         " i=" + std::to_string(r.informed_step) +
         " tx=" + std::to_string(r.transmissions) +
         " col=" + std::to_string(r.collisions) +
         " del=" + std::to_string(r.deliveries) +
         " cr=" + std::to_string(r.crashed_nodes) +
         " rec=" + std::to_string(r.recoveries) +
         " sup=" + std::to_string(r.suppressed_deliveries) +
         " out=" + run_outcome_name(r.outcome) + " at=" + hex(h);
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
  rng tree_gen(5);
  out.push_back({"tree", make_random_tree(40, tree_gen)});
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

std::vector<std::string> actual_lines() {
  std::vector<std::string> lines;
  for (const named_graph& ng : fixed_graphs()) {
    for (const auto& [pname, proto] : protocols_for(ng.g)) {
      for (const std::uint64_t seed : {1ULL, 99ULL}) {
        const std::string base =
            pname + "/" + ng.name + "/seed=" + std::to_string(seed);
        run_options opts;
        opts.seed = seed;
        opts.max_steps = 20'000;
        lines.push_back(
            record_line(base + "/free", run_broadcast(ng.g, *proto, opts)));

        fault::recovery_options ro;
        ro.schedule = {{1, 3}, {4, 5}, {7, 9}, {0, 12}};
        ro.crash_probability = 0.002;
        ro.mode = fault::recovery_mode::amnesia;
        ro.downtime = 4;
        fault::recovery_model recovery(ro);
        fault::loss_model loss(fault::loss_options{0.1});
        fault::composite_fault_model faults({&recovery, &loss});
        opts.faults = &faults;
        lines.push_back(record_line(base + "/amnesia+loss",
                                    run_broadcast(ng.g, *proto, opts)));
      }
    }
  }

  for (const std::string name : {"round-robin", "select-and-send"}) {
    const auto proto = make_protocol(name, 511);
    const adversarial_network net = build_adversarial_network(*proto, 512, 8);
    std::vector<std::pair<node_id, node_id>> edges;
    for (node_id u = 0; u < net.g.node_count(); ++u) {
      for (const node_id v : net.g.out_neighbors(u)) {
        if (u < v) edges.emplace_back(u, v);
      }
    }
    std::sort(edges.begin(), edges.end());
    std::uint64_t h = kFnvBasis;
    for (const auto& [u, v] : edges) h = fnv1a(fnv1a(h, u), v);
    std::string spine;
    for (const std::int64_t t : net.spine_first_tx) {
      if (!spine.empty()) spine += ',';
      spine += std::to_string(t);
    }
    lines.push_back("adversary/" + name +
                    " forced=" + std::to_string(net.forced_steps) +
                    " stuck=" + std::to_string(net.stuck ? 1 : 0) +
                    " spine=" + spine + " edges=" +
                    std::to_string(edges.size()) + " h=" + hex(h));
  }

  const graph paper = make_complete_layered_uniform(1024, 16);
  for (const std::string name : {"select-and-send", "complete-layered"}) {
    const auto proto = make_protocol(name, 1023);
    run_options opts;
    opts.max_steps = 100'000'000;
    lines.push_back(
        record_line("paper/" + name + "/n=1024/D=16",
                    run_broadcast(paper, *proto, opts)));
  }
  return lines;
}

const std::vector<std::string> kExpected = {
  "decay/layered/seed=1/free c=1 s=41 i=41 tx=195 col=409 del=173 cr=0 rec=0 sup=0 out=completed at=a769c8b6a42ae00d",
  "decay/layered/seed=1/amnesia+loss c=1 s=53 i=53 tx=202 col=410 del=198 cr=13 rec=13 sup=22 out=completed at=f20c132cc84524fc",
  "decay/layered/seed=99/free c=1 s=76 i=76 tx=483 col=825 del=373 cr=0 rec=0 sup=0 out=completed at=4e656c0be811cd6e",
  "decay/layered/seed=99/amnesia+loss c=1 s=92 i=92 tx=575 col=984 del=488 cr=17 rec=17 sup=47 out=completed at=a2cd1c7eb8ef2e03",
  "kp/layered/seed=1/free c=1 s=29 i=29 tx=298 col=487 del=221 cr=0 rec=0 sup=0 out=completed at=e455bb0f0accfe39",
  "kp/layered/seed=1/amnesia+loss c=1 s=48 i=48 tx=601 col=1025 del=283 cr=13 rec=13 sup=40 out=completed at=f86860a95f75e68c",
  "kp/layered/seed=99/free c=1 s=19 i=19 tx=185 col=376 del=148 cr=0 rec=0 sup=0 out=completed at=044d492ebf45e337",
  "kp/layered/seed=99/amnesia+loss c=1 s=24 i=24 tx=280 col=513 del=174 cr=7 rec=7 sup=22 out=completed at=d72e84486fa7afc5",
  "kp-doubling/layered/seed=1/free c=1 s=32 i=32 tx=300 col=453 del=297 cr=0 rec=0 sup=0 out=completed at=95c5824a8e22f33a",
  "kp-doubling/layered/seed=1/amnesia+loss c=1 s=47 i=47 tx=520 col=770 del=406 cr=13 rec=13 sup=55 out=completed at=27ca387d41dd95c8",
  "kp-doubling/layered/seed=99/free c=1 s=21 i=21 tx=196 col=396 del=166 cr=0 rec=0 sup=0 out=completed at=55c98a2d6b3f8c31",
  "kp-doubling/layered/seed=99/amnesia+loss c=1 s=42 i=42 tx=553 col=914 del=329 cr=10 rec=10 sup=32 out=completed at=462b147f0a8c3100",
  "kp-ablated/layered/seed=1/free c=1 s=26 i=26 tx=303 col=464 del=188 cr=0 rec=0 sup=0 out=completed at=3215dc64c47bcd3c",
  "kp-ablated/layered/seed=1/amnesia+loss c=1 s=35 i=35 tx=520 col=709 del=190 cr=10 rec=10 sup=21 out=completed at=214f1d0d3ba64968",
  "kp-ablated/layered/seed=99/free c=1 s=20 i=20 tx=268 col=528 del=133 cr=0 rec=0 sup=0 out=completed at=8cc41958648b1f36",
  "kp-ablated/layered/seed=99/amnesia+loss c=1 s=30 i=30 tx=493 col=714 del=224 cr=8 rec=8 sup=27 out=completed at=9108875beaf05975",
  "round-robin/layered/seed=1/free c=1 s=34 i=34 tx=34 col=0 del=831 cr=0 rec=0 sup=0 out=completed at=1772aafc1386c804",
  "round-robin/layered/seed=1/amnesia+loss c=1 s=35 i=35 tx=33 col=0 del=715 cr=10 rec=10 sup=89 out=completed at=f4a1852cc9fa7d77",
  "round-robin/layered/seed=99/free c=1 s=34 i=34 tx=34 col=0 del=831 cr=0 rec=0 sup=0 out=completed at=1772aafc1386c804",
  "round-robin/layered/seed=99/amnesia+loss c=1 s=98 i=98 tx=92 col=0 del=1980 cr=17 rec=17 sup=218 out=completed at=1e062e00ec049808",
  "select-and-send/layered/seed=1/free c=1 s=832 i=832 tx=2256 col=5668 del=11642 cr=0 rec=0 sup=0 out=completed at=66da3a0f48682fab",
  "select-and-send/layered/seed=1/amnesia+loss c=0 s=20000 i=-1 tx=5 col=0 del=74 cr=2532 rec=2532 sup=8 out=stuck at=4c8b3a2ebff267ad",
  "select-and-send/layered/seed=99/free c=1 s=832 i=832 tx=2256 col=5668 del=11642 cr=0 rec=0 sup=0 out=completed at=66da3a0f48682fab",
  "select-and-send/layered/seed=99/amnesia+loss c=0 s=20000 i=-1 tx=3 col=0 del=43 cr=2503 rec=2503 sup=5 out=stuck at=4c8b3a2ebff267ad",
  "complete-layered/layered/seed=1/free c=1 s=77 i=77 tx=271 col=708 del=953 cr=0 rec=0 sup=0 out=completed at=0177e5df0ecfa269",
  "complete-layered/layered/seed=1/amnesia+loss c=0 s=20000 i=-1 tx=5 col=0 del=74 cr=2532 rec=2532 sup=8 out=stuck at=4c8b3a2ebff267ad",
  "complete-layered/layered/seed=99/free c=1 s=77 i=77 tx=271 col=708 del=953 cr=0 rec=0 sup=0 out=completed at=0177e5df0ecfa269",
  "complete-layered/layered/seed=99/amnesia+loss c=0 s=20000 i=-1 tx=3 col=0 del=43 cr=2503 rec=2503 sup=5 out=stuck at=4c8b3a2ebff267ad",
  "interleaved/layered/seed=1/free c=1 s=67 i=67 tx=146 col=288 del=1130 cr=0 rec=0 sup=0 out=completed at=d77690697a048f67",
  "interleaved/layered/seed=1/amnesia+loss c=1 s=195 i=195 tx=102 col=0 del=2132 cr=29 rec=29 sup=244 out=completed at=7c2272bd66053e54",
  "interleaved/layered/seed=99/free c=1 s=67 i=67 tx=146 col=288 del=1130 cr=0 rec=0 sup=0 out=completed at=d77690697a048f67",
  "interleaved/layered/seed=99/amnesia+loss c=1 s=195 i=195 tx=104 col=0 del=2174 cr=26 rec=26 sup=240 out=completed at=ee3d8a78403d114a",
  "selective/layered/seed=1/free c=1 s=34 i=34 tx=34 col=0 del=831 cr=0 rec=0 sup=0 out=completed at=1772aafc1386c804",
  "selective/layered/seed=1/amnesia+loss c=1 s=35 i=35 tx=33 col=0 del=715 cr=10 rec=10 sup=89 out=completed at=f4a1852cc9fa7d77",
  "selective/layered/seed=99/free c=1 s=34 i=34 tx=34 col=0 del=831 cr=0 rec=0 sup=0 out=completed at=1772aafc1386c804",
  "selective/layered/seed=99/amnesia+loss c=1 s=46 i=46 tx=53 col=109 del=964 cr=10 rec=10 sup=94 out=completed at=31af5cb1c3f5d589",
  "dfs-known/layered/seed=1/free c=1 s=67 i=67 tx=67 col=0 del=1631 cr=0 rec=0 sup=0 out=completed at=1de86b073ea58767",
  "dfs-known/layered/seed=1/amnesia+loss c=0 s=20000 i=-1 tx=3 col=0 del=44 cr=2532 rec=2532 sup=5 out=stuck at=4c8b3a2ebff267ad",
  "dfs-known/layered/seed=99/free c=1 s=67 i=67 tx=67 col=0 del=1631 cr=0 rec=0 sup=0 out=completed at=1de86b073ea58767",
  "dfs-known/layered/seed=99/amnesia+loss c=0 s=20000 i=-1 tx=3 col=0 del=44 cr=2503 rec=2503 sup=5 out=stuck at=4c8b3a2ebff267ad",
  "decay/gnp/seed=1/free c=1 s=49 i=49 tx=230 col=90 del=201 cr=0 rec=0 sup=0 out=completed at=f2ceb57440e6c14b",
  "decay/gnp/seed=1/amnesia+loss c=1 s=122 i=122 tx=773 col=393 del=400 cr=18 rec=18 sup=54 out=completed at=c2c64a210e6bab8c",
  "decay/gnp/seed=99/free c=1 s=41 i=41 tx=170 col=124 del=170 cr=0 rec=0 sup=0 out=completed at=f4419437cbb1b20d",
  "decay/gnp/seed=99/amnesia+loss c=1 s=102 i=102 tx=623 col=348 del=414 cr=14 rec=14 sup=37 out=completed at=b5ad53c9348baaae",
  "kp/gnp/seed=1/free c=1 s=19 i=19 tx=162 col=91 del=158 cr=0 rec=0 sup=0 out=completed at=b268a7d8287080f5",
  "kp/gnp/seed=1/amnesia+loss c=1 s=39 i=39 tx=467 col=220 del=265 cr=10 rec=10 sup=36 out=completed at=ee60d9b7ee7b866e",
  "kp/gnp/seed=99/free c=1 s=17 i=17 tx=161 col=94 del=145 cr=0 rec=0 sup=0 out=completed at=a5cc41df6fe7a714",
  "kp/gnp/seed=99/amnesia+loss c=1 s=41 i=41 tx=518 col=276 del=291 cr=7 rec=7 sup=30 out=completed at=3943a44b16dd8aae",
  "kp-doubling/gnp/seed=1/free c=1 s=18 i=18 tx=160 col=80 del=138 cr=0 rec=0 sup=0 out=completed at=3112a5b6bb4ac992",
  "kp-doubling/gnp/seed=1/amnesia+loss c=1 s=41 i=41 tx=395 col=179 del=304 cr=10 rec=10 sup=44 out=completed at=54e676e04cac7a22",
  "kp-doubling/gnp/seed=99/free c=1 s=18 i=18 tx=172 col=102 del=136 cr=0 rec=0 sup=0 out=completed at=868ababba903a8b7",
  "kp-doubling/gnp/seed=99/amnesia+loss c=1 s=25 i=25 tx=244 col=151 del=166 cr=5 rec=5 sup=21 out=completed at=732f911d4aba8241",
  "kp-ablated/gnp/seed=1/free c=1 s=40 i=40 tx=601 col=293 del=322 cr=0 rec=0 sup=0 out=completed at=b7de1a18aea81ca9",
  "kp-ablated/gnp/seed=1/amnesia+loss c=1 s=36 i=36 tx=492 col=240 del=259 cr=10 rec=10 sup=35 out=completed at=4e3fd6165700851b",
  "kp-ablated/gnp/seed=99/free c=1 s=24 i=24 tx=337 col=163 del=223 cr=0 rec=0 sup=0 out=completed at=6603fef28f5c7039",
  "kp-ablated/gnp/seed=99/amnesia+loss c=1 s=32 i=32 tx=460 col=228 del=229 cr=6 rec=6 sup=27 out=completed at=07c811a9dc830da2",
  "round-robin/gnp/seed=1/free c=1 s=42 i=42 tx=30 col=0 del=192 cr=0 rec=0 sup=0 out=completed at=dfea5a80a057e36b",
  "round-robin/gnp/seed=1/amnesia+loss c=1 s=65 i=65 tx=48 col=0 del=245 cr=13 rec=13 sup=34 out=completed at=9fa082a7a4e0976b",
  "round-robin/gnp/seed=99/free c=1 s=42 i=42 tx=30 col=0 del=192 cr=0 rec=0 sup=0 out=completed at=dfea5a80a057e36b",
  "round-robin/gnp/seed=99/amnesia+loss c=1 s=102 i=102 tx=83 col=0 del=454 cr=14 rec=14 sup=42 out=completed at=4c7add61fe19bfaf",
  "select-and-send/gnp/seed=1/free c=1 s=189 i=189 tx=247 col=121 del=1075 cr=0 rec=0 sup=0 out=completed at=fe0557c8de3e55fb",
  "select-and-send/gnp/seed=1/amnesia+loss c=0 s=20000 i=-1 tx=14 col=4 del=62 cr=1924 rec=1923 sup=6 out=stuck at=ec3bcf617fbcaa2d",
  "select-and-send/gnp/seed=99/free c=1 s=189 i=189 tx=247 col=121 del=1075 cr=0 rec=0 sup=0 out=completed at=fe0557c8de3e55fb",
  "select-and-send/gnp/seed=99/amnesia+loss c=0 s=20000 i=-1 tx=166 col=58 del=709 cr=1873 rec=1873 sup=74 out=stuck at=ec3bcf617fbcaa2d",
  "complete-layered/gnp/seed=1/free c=0 s=20000 i=-1 tx=162 col=64 del=851 cr=0 rec=0 sup=0 out=stuck at=044a25629ef76feb",
  "complete-layered/gnp/seed=1/amnesia+loss c=0 s=20000 i=-1 tx=14 col=4 del=62 cr=1924 rec=1923 sup=6 out=stuck at=ec3bcf617fbcaa2d",
  "complete-layered/gnp/seed=99/free c=0 s=20000 i=-1 tx=162 col=64 del=851 cr=0 rec=0 sup=0 out=stuck at=044a25629ef76feb",
  "complete-layered/gnp/seed=99/amnesia+loss c=0 s=20000 i=-1 tx=234 col=69 del=1102 cr=1873 rec=1873 sup=107 out=stuck at=ec3bcf617fbcaa2d",
  "interleaved/gnp/seed=1/free c=1 s=83 i=83 tx=81 col=25 del=411 cr=0 rec=0 sup=0 out=completed at=06b7c8d02180b5fa",
  "interleaved/gnp/seed=1/amnesia+loss c=1 s=197 i=197 tx=87 col=0 del=461 cr=24 rec=24 sup=61 out=completed at=d53a081b2ae635ef",
  "interleaved/gnp/seed=99/free c=1 s=83 i=83 tx=81 col=25 del=411 cr=0 rec=0 sup=0 out=completed at=06b7c8d02180b5fa",
  "interleaved/gnp/seed=99/amnesia+loss c=1 s=151 i=151 tx=69 col=0 del=377 cr=16 rec=16 sup=36 out=completed at=6a3a78bfce449ffa",
  "selective/gnp/seed=1/free c=1 s=9 i=9 tx=22 col=11 del=93 cr=0 rec=0 sup=0 out=completed at=15612ad4a7acd824",
  "selective/gnp/seed=1/amnesia+loss c=1 s=28 i=28 tx=85 col=48 del=325 cr=8 rec=8 sup=45 out=completed at=da25db9860c5e77b",
  "selective/gnp/seed=99/free c=1 s=9 i=9 tx=22 col=11 del=93 cr=0 rec=0 sup=0 out=completed at=15612ad4a7acd824",
  "selective/gnp/seed=99/amnesia+loss c=1 s=14 i=14 tx=35 col=18 del=140 cr=5 rec=5 sup=21 out=completed at=dc6104314e65906e",
  "dfs-known/gnp/seed=1/free c=1 s=64 i=64 tx=64 col=0 del=384 cr=0 rec=0 sup=0 out=completed at=64489e75edc79c47",
  "dfs-known/gnp/seed=1/amnesia+loss c=0 s=20000 i=-1 tx=32 col=0 del=161 cr=1924 rec=1923 sup=17 out=stuck at=ec3bcf617fbcaa2d",
  "dfs-known/gnp/seed=99/free c=1 s=64 i=64 tx=64 col=0 del=384 cr=0 rec=0 sup=0 out=completed at=64489e75edc79c47",
  "dfs-known/gnp/seed=99/amnesia+loss c=0 s=20000 i=-1 tx=32 col=0 del=161 cr=1873 rec=1873 sup=21 out=stuck at=ec3bcf617fbcaa2d",
  "decay/tree/seed=1/free c=1 s=61 i=61 tx=212 col=20 del=125 cr=0 rec=0 sup=0 out=completed at=a418cd3e18cd49bd",
  "decay/tree/seed=1/amnesia+loss c=1 s=85 i=85 tx=243 col=23 del=129 cr=13 rec=13 sup=11 out=completed at=121e28d4f6a55ca9",
  "decay/tree/seed=99/free c=1 s=61 i=61 tx=224 col=12 del=154 cr=0 rec=0 sup=0 out=completed at=a418cd3e18cd49bd",
  "decay/tree/seed=99/amnesia+loss c=1 s=109 i=109 tx=372 col=30 del=211 cr=15 rec=15 sup=26 out=completed at=308022cbaa50572a",
  "kp/tree/seed=1/free c=1 s=22 i=22 tx=193 col=10 del=125 cr=0 rec=0 sup=0 out=completed at=cdd2428f0fd21bfb",
  "kp/tree/seed=1/amnesia+loss c=1 s=29 i=29 tx=253 col=21 del=147 cr=8 rec=8 sup=13 out=completed at=79c0f4bef8e99802",
  "kp/tree/seed=99/free c=1 s=22 i=22 tx=194 col=12 del=139 cr=0 rec=0 sup=0 out=completed at=cdd2428f0fd21bfb",
  "kp/tree/seed=99/amnesia+loss c=1 s=23 i=23 tx=176 col=10 del=117 cr=6 rec=6 sup=16 out=completed at=fe663c569800e52c",
  "kp-doubling/tree/seed=1/free c=1 s=30 i=30 tx=193 col=10 del=121 cr=0 rec=0 sup=0 out=completed at=705c554bd47bf777",
  "kp-doubling/tree/seed=1/amnesia+loss c=1 s=30 i=30 tx=158 col=12 del=103 cr=8 rec=8 sup=10 out=completed at=ab1ad78334b3e5aa",
  "kp-doubling/tree/seed=99/free c=1 s=30 i=30 tx=214 col=23 del=137 cr=0 rec=0 sup=0 out=completed at=705c554bd47bf777",
  "kp-doubling/tree/seed=99/amnesia+loss c=1 s=65 i=65 tx=558 col=57 del=252 cr=10 rec=10 sup=27 out=completed at=f4548b8a693412b3",
  "kp-ablated/tree/seed=1/free c=1 s=18 i=18 tx=191 col=8 del=108 cr=0 rec=0 sup=0 out=completed at=d2bc5720fa3800fd",
  "kp-ablated/tree/seed=1/amnesia+loss c=1 s=19 i=19 tx=180 col=11 del=101 cr=4 rec=4 sup=10 out=completed at=cf4c6e507a2849b9",
  "kp-ablated/tree/seed=99/free c=1 s=18 i=18 tx=195 col=17 del=121 cr=0 rec=0 sup=0 out=completed at=d2bc5720fa3800fd",
  "kp-ablated/tree/seed=99/amnesia+loss c=1 s=26 i=26 tx=284 col=24 del=129 cr=6 rec=6 sup=18 out=completed at=168e305faf06456b",
  "round-robin/tree/seed=1/free c=1 s=32 i=32 tx=32 col=0 del=70 cr=0 rec=0 sup=0 out=completed at=23651e09fb92c245",
  "round-robin/tree/seed=1/amnesia+loss c=1 s=253 i=253 tx=216 col=0 del=397 cr=25 rec=25 sup=52 out=completed at=e6960a0047e21926",
  "round-robin/tree/seed=99/free c=1 s=32 i=32 tx=32 col=0 del=70 cr=0 rec=0 sup=0 out=completed at=23651e09fb92c245",
  "round-robin/tree/seed=99/amnesia+loss c=1 s=138 i=138 tx=127 col=0 del=238 cr=16 rec=16 sup=27 out=completed at=7ff81d72781a5a50",
  "select-and-send/tree/seed=1/free c=1 s=499 i=499 tx=560 col=85 del=1632 cr=0 rec=0 sup=0 out=completed at=61c05abd98576fca",
  "select-and-send/tree/seed=1/amnesia+loss c=0 s=20000 i=-1 tx=4 col=0 del=16 cr=1628 rec=1628 sup=1 out=stuck at=a931c0a44f75b76d",
  "select-and-send/tree/seed=99/free c=1 s=499 i=499 tx=560 col=85 del=1632 cr=0 rec=0 sup=0 out=completed at=61c05abd98576fca",
  "select-and-send/tree/seed=99/amnesia+loss c=0 s=20000 i=-1 tx=3 col=0 del=14 cr=1575 rec=1575 sup=1 out=stuck at=a931c0a44f75b76d",
  "complete-layered/tree/seed=1/free c=0 s=20000 i=-1 tx=62 col=9 del=200 cr=0 rec=0 sup=0 out=stuck at=9f39671311a076e2",
  "complete-layered/tree/seed=1/amnesia+loss c=0 s=20000 i=-1 tx=4 col=0 del=16 cr=1628 rec=1628 sup=1 out=stuck at=a931c0a44f75b76d",
  "complete-layered/tree/seed=99/free c=0 s=20000 i=-1 tx=62 col=9 del=200 cr=0 rec=0 sup=0 out=stuck at=9f39671311a076e2",
  "complete-layered/tree/seed=99/amnesia+loss c=0 s=20000 i=-1 tx=3 col=0 del=14 cr=1575 rec=1575 sup=1 out=stuck at=a931c0a44f75b76d",
  "interleaved/tree/seed=1/free c=1 s=63 i=63 tx=77 col=7 del=220 cr=0 rec=0 sup=0 out=completed at=e89d600a91b1d044",
  "interleaved/tree/seed=1/amnesia+loss c=1 s=593 i=593 tx=263 col=0 del=489 cr=44 rec=44 sup=65 out=completed at=cfdbbd7da94974bf",
  "interleaved/tree/seed=99/free c=1 s=63 i=63 tx=77 col=7 del=220 cr=0 rec=0 sup=0 out=completed at=e89d600a91b1d044",
  "interleaved/tree/seed=99/amnesia+loss c=1 s=659 i=659 tx=289 col=0 del=540 cr=57 rec=57 sup=51 out=completed at=cf7d86def7129358",
  "selective/tree/seed=1/free c=1 s=28 i=28 tx=83 col=15 del=143 cr=0 rec=0 sup=0 out=completed at=4ee91bb4ce01d7a8",
  "selective/tree/seed=1/amnesia+loss c=1 s=192 i=192 tx=313 col=17 del=522 cr=20 rec=20 sup=74 out=completed at=3e8ae4ce8b92bdd6",
  "selective/tree/seed=99/free c=1 s=28 i=28 tx=83 col=15 del=143 cr=0 rec=0 sup=0 out=completed at=4ee91bb4ce01d7a8",
  "selective/tree/seed=99/amnesia+loss c=1 s=125 i=125 tx=238 col=13 del=414 cr=15 rec=15 sup=37 out=completed at=bb8045b8f60b6b46",
  "dfs-known/tree/seed=1/free c=1 s=114 i=114 tx=114 col=0 del=300 cr=0 rec=0 sup=0 out=completed at=477dcab8fd07c39a",
  "dfs-known/tree/seed=1/amnesia+loss c=0 s=20000 i=-1 tx=3 col=0 del=15 cr=1628 rec=1628 sup=1 out=stuck at=a931c0a44f75b76d",
  "dfs-known/tree/seed=99/free c=1 s=114 i=114 tx=114 col=0 del=300 cr=0 rec=0 sup=0 out=completed at=477dcab8fd07c39a",
  "dfs-known/tree/seed=99/amnesia+loss c=0 s=20000 i=-1 tx=3 col=0 del=15 cr=1575 rec=1575 sup=1 out=stuck at=a931c0a44f75b76d",
  "adversary/round-robin forced=9 stuck=0 spine=0,513,1026,1539 edges=6376 h=fa2551ad558ccdf9",
  "adversary/select-and-send forced=9 stuck=0 spine=0,11,478,1062 edges=6376 h=fa2551ad558ccdf9",
  "paper/select-and-send/n=1024/D=16 c=1 s=48340 i=48340 tx=339430 col=1342066 del=3502093 cr=0 rec=0 sup=0 out=completed at=5d08fa4935548f42",
  "paper/complete-layered/n=1024/D=16 c=1 s=845 i=845 tx=8095 col=30256 del=64354 cr=0 rec=0 sup=0 out=completed at=71ccbd19c80cfff8",
};

TEST(GoldenRecordsTest, EveryProtocolMatchesItsRecordedTrials) {
  const std::vector<std::string> actual = actual_lines();
  std::string dump;
  for (const std::string& line : actual) dump += "  \"" + line + "\",\n";
  ASSERT_EQ(actual.size(), kExpected.size()) << dump;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], kExpected[i]) << "line " << i;
  }
}

TEST(GoldenRecordsTest, PaperNumbersFromTheBenchSmokeConfiguration) {
  // The two ROADMAP numbers, stated directly as well as in the table.
  const graph g = make_complete_layered_uniform(1024, 16);
  run_options opts;
  opts.max_steps = 100'000'000;
  EXPECT_EQ(run_broadcast(g, *make_protocol("select-and-send", 1023), opts)
                .informed_step,
            48'340);
  EXPECT_EQ(run_broadcast(g, *make_protocol("complete-layered", 1023), opts)
                .informed_step,
            845);
}

}  // namespace
}  // namespace radiocast
