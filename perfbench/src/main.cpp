// perfbench — the repository benchmark. Runs one workload per invocation:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --expected <dir> --scratch <dir> [--commit <id>]
//   perfbench --workload <name> --write-expected <file> --scratch <dir>
//
// Prints a host line, one line per metric, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. perfbench/run.py
// builds it and supplies the directories; see perfbench/README.md.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "exec/thread_pool.h"
#include "obs/json.h"
#include "workloads.h"

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Full-precision JSON number; a non-finite value (a ratio over an empty
/// denominator) prints as -1 so the line stays valid JSON.
std::string number(double v) {
  if (!std::isfinite(v)) return "-1";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --expected <dir> --scratch <dir> "
               "[--commit <id>] [--write-expected <file>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::bench_config cfg;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        cfg.workload = v;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(v);
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        cfg.trace = v == "1";
      } else if (a == "--expected") {
        cfg.expected_dir = v;
      } else if (a == "--scratch") {
        cfg.scratch_dir = v;
      } else if (a == "--write-expected") {
        cfg.write_expected = v;
      } else if (a == "--commit") {
        commit = v;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (cfg.workload.empty() || cfg.scratch_dir.empty()) {
    return usage("--workload and --scratch are required");
  }
  if (!(cfg.seconds > 0.0 && cfg.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::cerr << "perfbench: refusing to measure a " << PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }

  auto host = radiocast::obs::json_value::object();
  host.set("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  host.set("hardware_threads",
           static_cast<std::int64_t>(radiocast::exec::hardware_threads()));
  host.set("cpu", cpu_model());
  host.set("compiler", std::string(PERFBENCH_COMPILER));
  host.set("build_type", std::string(PERFBENCH_BUILD_TYPE));
  host.set("commit", commit);
  std::cout << "host " << host.dump() << "\n";
  std::cout << "workload " << cfg.workload << " seed " << cfg.seed
            << " seconds " << cfg.seconds << " trace " << cfg.trace << "\n"
            << std::flush;

  perfbench::bench_outcome out;
  try {
    out = perfbench::run_benchmark(cfg);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  for (const auto& n : out.notes) std::cout << n << "\n";
  for (const auto& m : out.metrics) {
    std::cout << "metric " << m.name << " " << number(m.value) << " " << m.unit
              << "\n";
  }
  if (!cfg.write_expected.empty()) {
    std::cout << "wrote " << cfg.write_expected << " (" << out.attempted
              << " records, " << out.failed << " failed invariants)\n";
    return out.correct ? 0 : 1;
  }
  std::string line = std::string("{\"correct\": ") +
                     (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return 0;
}
