// Algorithm registry — the one table of shipped algorithms.
//
// Every algorithm the command line runs, checks or streams, and every test
// matrix that loops over "all algorithms", dispatches through this table.
// An entry names the algorithm, the dataset attribute it reads, whether it
// has a timestep loop (a stream to consume), and one function that runs it
// for a request and returns its canonical digest, RunStats, output lines
// and a printable result summary. Adding an algorithm takes one entry in
// registry.cc plus its golden digest lines.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/engine.h"

namespace tsg {

// Flag values by name, as the command line parses them: `--source=5` is
// {"source", "5"} and a bare `--outputs` is {"outputs", "1"}. Numeric reads
// are strict: the whole value must parse (std::from_chars) and lie in
// [min, max], else invalidArgument naming the flag.
class FlagMap {
 public:
  void set(std::string key, std::string value);
  [[nodiscard]] bool has(std::string_view key) const;
  [[nodiscard]] std::string get(std::string_view key,
                                std::string fallback) const;
  [[nodiscard]] Result<std::int64_t> getInt(
      std::string_view key, std::int64_t fallback,
      std::int64_t min = std::numeric_limits<std::int64_t>::min(),
      std::int64_t max = std::numeric_limits<std::int64_t>::max()) const;
  [[nodiscard]] Result<double> getDouble(std::string_view key,
                                         double fallback) const;

 private:
  std::map<std::string, std::string, std::less<>> values_;
};

// The dataset attribute an algorithm reads; running it on a dataset that
// lacks the attribute is a failedPrecondition naming the generator flag.
enum class NeededAttr : std::uint8_t { kNone, kLatencyEdge, kTweetsVertex };

// One run of a registry algorithm.
struct AlgorithmRequest {
  Schedule schedule = Schedule::kBsp;
  // Streamed input; ignored by algorithms without a timestep loop.
  TimestepStream* stream = nullptr;
  CheckpointStore* checkpoint_store = nullptr;
  // Per-algorithm parameters (tdsp's `source`, pagerank's `iters`, ...).
  // Each entry reads only its own keys.
  FlagMap params;
};

struct AlgorithmRun {
  // Canonical digest of the semantic outputs (check::Digest hex): exactly
  // the values a user consumes, never timings or metrics.
  std::string digest;
  RunStats stats;
  // Lines the run emitted on request (tdsp/meme `--outputs`).
  std::vector<std::string> outputs;
  // Human-readable result, newline-terminated.
  std::string summary;
};

struct AlgorithmEntry {
  using RunFn = Result<AlgorithmRun> (*)(const PartitionedGraph& pg,
                                         InstanceProvider& provider,
                                         const AlgorithmRequest& request);

  std::string_view name;
  NeededAttr needs = NeededAttr::kNone;
  // False for the plain vertex-centric engine: it runs one barriered BSP
  // over the topology, so there is nothing to stream and no wave schedule.
  bool has_timestep_loop = true;
  // Per-algorithm flags, as usage() lists them.
  std::string_view flags;
  RunFn run = nullptr;
};

// Every registered algorithm, in usage order.
std::span<const AlgorithmEntry> algorithms();

// The entry named `name`, or null.
const AlgorithmEntry* findAlgorithm(std::string_view name);

// Checks that the dataset carries the attribute the entry reads, then runs
// it. Bad parameters come back as invalidArgument, the wrong dataset kind
// as failedPrecondition; neither aborts.
Result<AlgorithmRun> runAlgorithm(const AlgorithmEntry& entry,
                                  const PartitionedGraph& pg,
                                  InstanceProvider& provider,
                                  const AlgorithmRequest& request);

}  // namespace tsg
