// perfbench — the repository benchmark (see perfbench/METRICS.md).
//
//   monobench --workload table3-2x2|table3-large|serve-mixed --seed N
//             --seconds S --trace 0|1 --spec BENCHMARK.json
//             [--commit SHA] [--state-dir DIR]
//
// Prints a header, per-workload detail lines, every metric by name and
// unit, and as its last line one JSON object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1), exactly as BENCHMARK.json lists them. Normally launched
// through perfbench/run.py, which builds it.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "support/argparse.hpp"
#include "support/json.hpp"
#include "support/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Outcome;
using perfbench::RunConfig;

/// One metric as BENCHMARK.json declares it.
struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The end-to-end and per-layer metric lists of BENCHMARK.json, which every
/// run must print in full. Exits when the file cannot be read.
std::pair<std::vector<MetricSpec>, std::vector<MetricSpec>> load_spec(
    const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::optional<monomap::json::Value> doc =
      monomap::json::parse(text.str());
  auto list = [&](const char* key) {
    std::vector<MetricSpec> out;
    const monomap::json::Value* v = doc ? doc->find(key) : nullptr;
    if (v == nullptr || !v->is_array()) {
      std::cerr << "monobench: " << path << " has no " << key << " list\n";
      std::exit(1);
    }
    for (const monomap::json::Value& m : v->as_array()) {
      out.push_back({m.string_or("name", ""), m.string_or("unit", "")});
    }
    return out;
  };
  return {list("end_to_end"), list("per_layer")};
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "monobench: " << why
            << "\nusage: monobench --workload table3-2x2|table3-large|"
               "serve-mixed --seed N --seconds S --trace 0|1 --spec FILE "
               "[--commit SHA] [--state-dir DIR]\n";
  std::exit(2);
}

RunConfig parse_args(int argc, char** argv, std::string* spec,
                     std::string* commit) {
  RunConfig config;
  config.state_dir = ".";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      if (value != "table3-2x2" && value != "table3-large" &&
          value != "serve-mixed") {
        usage("unknown workload " + value);
      }
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!monomap::argparse::parse_u64(value, &config.seed)) {
        usage("bad --seed");
      }
    } else if (arg == "--seconds") {
      if (!monomap::argparse::parse_double(value, &config.seconds) ||
          config.seconds <= 0.0) {
        usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace");
      config.trace = value == "1";
    } else if (arg == "--spec") {
      *spec = value;
    } else if (arg == "--commit") {
      *commit = value;
    } else if (arg == "--state-dir") {
      config.state_dir = value;
    } else {
      usage("unknown flag " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (spec->empty()) usage("--spec is required");
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string commit = "unknown";
  const RunConfig config = parse_args(argc, argv, &spec_path, &commit);
  const auto [end_to_end, per_layer] = load_spec(spec_path);

  std::cout << "# perfbench workload=" << config.workload
            << " seed=" << config.seed << " seconds=" << config.seconds
            << " trace=" << (config.trace ? 1 : 0) << '\n'
            << "# nproc=" << std::thread::hardware_concurrency() << " simd="
            << monomap::simd::level_name(monomap::simd::active_level())
            << " build=" << PERFBENCH_BUILD_TYPE << " commit=" << commit
            << '\n';

  Outcome outcome;
  if (config.workload == "table3-2x2") {
    outcome = perfbench::run_table3(config, {2}, {});
  } else if (config.workload == "table3-large") {
    // cfd and hotspot3D take 0.4-2.3 s each on these grids, so a run could
    // sample them only about three times, too few for a steady best time
    // on a shared host.
    outcome = perfbench::run_table3(config, {5, 10, 20}, {"cfd", "hotspot3D"});
  } else {
    outcome = perfbench::run_serve_mixed(config);
  }

  Outcome result;
  result.attempted = outcome.attempted;
  result.failed = outcome.failed;
  result.correct = outcome.correct;
  if (config.trace) {
    const double untraced = perfbench::load_headline(config);
    const double traced = outcome.metrics.count(outcome.headline) != 0
                              ? outcome.metrics.at(outcome.headline).first
                              : 0.0;
    outcome.set("trace.overhead_share",
                untraced > 0.0 ? traced / untraced - 1.0 : 0.0, "ratio");
    // A workload that bypasses a layer reports it as 0.
    for (const MetricSpec& m : per_layer) {
      const auto it = outcome.metrics.find(m.name);
      result.set(m.name,
                 it == outcome.metrics.end() ? 0.0 : it->second.first,
                 m.unit);
    }
  } else {
    for (const MetricSpec& m : end_to_end) {
      const auto it = outcome.metrics.find(m.name);
      if (it == outcome.metrics.end() || it->second.second != m.unit) {
        std::cerr << "monobench: workload did not produce " << m.name
                  << " in " << m.unit << '\n';
        return 1;
      }
      result.set(m.name, it->second.first, m.unit);
    }
    perfbench::store_headline(config,
                              outcome.metrics.at(outcome.headline).first);
  }

  // Every metric the run measured, by name and unit, then the result line.
  for (const std::string& name : outcome.names) {
    const auto& [value, unit] = outcome.metrics.at(name);
    std::printf("metric %-28s %.6g %s\n", name.c_str(), value, unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.names.size(); ++i) {
    const auto& [value, unit] = result.metrics.at(result.names[i]);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", result.names[i].c_str(), value,
                unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}
