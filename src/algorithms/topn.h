// Per-instance Top-N most active vertices — the paper's independent-pattern
// example ("finding the daily Top-N central vertices in a year ... in a
// pleasingly temporally parallel manner", §II-B).
//
// Every timestep runs a self-contained two-superstep BSP: subgraphs compute
// local candidates (activity = out-degree × (1 + tweet count)), ship them to
// the largest subgraph of partition 0, which selects the global Top-N for
// that instance. The timesteps run one after another.
#pragma once

#include <cstddef>
#include <vector>

#include "core/engine.h"

namespace tsg {

struct TopNOptions {
  std::size_t tweets_attr = 0;
  std::size_t n = 10;
  Timestep first_timestep = 0;
  std::int32_t num_timesteps = -1;
  // Fault tolerance: replayed timesteps rewrite their top[] slot
  // deterministically, so no program state is checkpointed.
  CheckpointStore* checkpoint_store = nullptr;
  // Superstep scheduling: kBsp (global barrier, the default) or kAsync
  // (dependency-driven waves; identical output, see DESIGN.md).
  Schedule schedule = Schedule::kBsp;
  // Streaming ingestion (see TiBspConfig::stream); null = batch run.
  TimestepStream* stream = nullptr;
};

struct TopNRun {
  // top[i] = Top-N vertex indices of timestep first_timestep + i,
  // descending activity, ties by ascending vertex index.
  std::vector<std::vector<VertexIndex>> top;
  TiBspResult exec;
};

TopNRun runTopActiveVertices(const PartitionedGraph& pg,
                             InstanceProvider& provider,
                             const TopNOptions& options);

}  // namespace tsg
