// Hashtag Aggregation — the paper's eventually dependent example (§III-A).
//
// Per timestep each subgraph counts the hashtag's occurrences among its
// vertices' tweets and ships the count to the Merge step. In the Merge BSP
// every subgraph assembles its per-timestep series hash[] from the merge
// messages (indexed by origin timestep) and sends it to the largest
// subgraph of partition 0, which aggregates element-wise — the paper's
// Master.Compute mimicry — and emits the totals plus the rate of change.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/engine.h"

namespace tsg {

struct HashtagOptions {
  std::string tag = "#meme";
  std::size_t tweets_attr = 0;
  Timestep first_timestep = 0;
  std::int32_t num_timesteps = -1;  // -1 = all instances
  std::int32_t maintenance_period = 0;
  // Fault tolerance: checkpoints every timestep boundary, including the
  // accumulated merge pool (gofs/checkpoint.h).
  CheckpointStore* checkpoint_store = nullptr;
  // Superstep scheduling: kBsp (global barrier, the default) or kAsync
  // (dependency-driven waves; identical output, see DESIGN.md).
  Schedule schedule = Schedule::kBsp;
  // Streaming ingestion (see TiBspConfig::stream); null = batch run.
  TimestepStream* stream = nullptr;
};

struct HashtagRun {
  // counts[i] = occurrences at timestep first_timestep + i.
  std::vector<std::uint64_t> counts;
  // rate_of_change[i] = counts[i] - counts[i-1] (0 for i == 0).
  std::vector<std::int64_t> rate_of_change;
  TiBspResult exec;
};

HashtagRun runHashtagAggregation(const PartitionedGraph& pg,
                                 InstanceProvider& provider,
                                 const HashtagOptions& options);

}  // namespace tsg
