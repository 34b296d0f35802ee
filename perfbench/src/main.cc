// perfbench — end-to-end and per-layer benchmark of tsgraph.
//
//   perfbench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//             [--scale=PERCENT] [--inject=PLAN] --data-dir=DIR
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace=0, the per-layer metrics with --trace=1. Exits 1 if
// the run could not be made (bad option, I/O error). perfbench/run.py builds
// this binary and forwards its own flags to it.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace {

bool takeFlag(const std::string& arg, const char* name, std::string& value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  value = arg.substr(prefix.size());
  return true;
}

perfbench::RunOptions parseArgs(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (takeFlag(arg, "workload", v)) {
      options.workload = v;
    } else if (takeFlag(arg, "seed", v)) {
      options.seed = std::stoull(v);
    } else if (takeFlag(arg, "seconds", v)) {
      options.seconds = std::stod(v);
    } else if (takeFlag(arg, "trace", v)) {
      options.trace = std::stoi(v) != 0;
    } else if (takeFlag(arg, "scale", v)) {
      options.scale_percent = std::stoi(v);
    } else if (takeFlag(arg, "inject", v)) {
      options.inject = v;
    } else if (takeFlag(arg, "data-dir", v)) {
      options.data_dir = v;
    } else {
      throw std::runtime_error("unknown argument '" + arg + "'");
    }
  }
  if (options.data_dir.empty()) {
    throw std::runtime_error("--data-dir is required");
  }
  if (options.seconds <= 0 || options.scale_percent <= 0) {
    throw std::runtime_error("--seconds and --scale must be positive");
  }
  return options;
}

void printResult(const perfbench::RunResult& result) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : result.metrics) {
    // Full precision: a value must read as measured.
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += first ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  try {
    options = parseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.data_dir, ec);
  int rc = 0;
  try {
    const auto result = perfbench::runWorkload(options);
    for (const auto& m : result.metrics) {
      if (!std::isfinite(m.value)) {
        throw std::runtime_error("metric " + m.name + " is not finite");
      }
    }
    printResult(result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    rc = 1;
  }
  std::filesystem::remove_all(options.data_dir, ec);
  return rc;
}
