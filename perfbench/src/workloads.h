// The benchmark's workloads and the loop that measures them.
//
//   tdsp-road       TDSP (sequentially dependent, While-mode) over CARN road
//                   instances read from GoFS, BFS-partitioned, k = 3.
//   hashtag-social  hashtag aggregation (eventually dependent, with a merge
//                   BSP) over WIKI tweet instances read from GoFS, k = 3.
//   meme-stream     meme tracking over a paced event stream of a sparse SIR
//                   outbreak on WIKI, LDG-partitioned, incremental skip and
//                   per-timestep file checkpoints, k = 3.
//
// Every batch job and every stream job is checked against the sequential
// oracle in algorithms/reference; a job that errors or differs is failed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 2015;
  double seconds = 10.0;
  // Traced run: decorators armed, per-layer metrics instead of end-to-end.
  bool trace = false;
  // Percent of the bench_common default graph size (300 = ~200k vertices).
  int scale_percent = 300;
  // Fault plan (FaultInjector syntax, e.g. "delay@compute:p0:x100:d1000"),
  // re-armed before every job; empty = none.
  std::string inject;
  // Scratch directory for GoFS datasets and checkpoints (removed at exit).
  std::string data_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

// Generates the inputs from the seed, sets up, computes the oracle, warms
// up, then runs jobs for `seconds` and summarizes them. Progress and sample
// counts go to stderr. Throws std::runtime_error on a bad option.
RunResult runWorkload(const RunOptions& options);

}  // namespace perfbench
