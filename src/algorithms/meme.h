// Meme Tracking — Algorithm 1 of the paper (sequentially dependent
// pattern, §III-B): a temporal BFS for a meme µ over space and time.
//
// At the first timestep the roots are the vertices whose tweets contain µ;
// the BFS then traverses contiguous meme-carrying vertices inside each
// subgraph, notifying neighbor subgraphs across remote edges. Instead of
// re-sending the colored set C* to itself each timestep (Alg. 1's listing),
// each partition keeps a frontier: the uncolored vertices with a colored
// in-neighbour. A later timestep's roots are the frontier members that
// carry µ then, so its work follows what changed, not |C*| (DESIGN.md).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/engine.h"

namespace tsg {

struct MemeOptions {
  std::string meme = "#meme";
  std::size_t tweets_attr = 0;
  Timestep first_timestep = 0;
  std::int32_t num_timesteps = -1;  // -1 = all instances
  std::int32_t maintenance_period = 0;
  // Emit "meme,<vertex_id>,<timestep>" per newly colored vertex (the
  // paper's PrintHorizon; off by default).
  bool emit_outputs = false;
  // Fault tolerance: when set, the engine checkpoints at every timestep
  // boundary and recovers from injected worker faults (gofs/checkpoint.h).
  CheckpointStore* checkpoint_store = nullptr;
  // Superstep scheduling: kBsp (global barrier, the default) or kAsync
  // (dependency-driven waves; identical output, see DESIGN.md).
  Schedule schedule = Schedule::kBsp;
  // Streaming ingestion (see TiBspConfig::stream); null = batch run.
  TimestepStream* stream = nullptr;
};

struct MemeRun {
  // First timestep each vertex was colored; -1 = never reached.
  std::vector<Timestep> colored_at;
  TiBspResult exec;
};

// Counter name: newly colored vertices per (timestep, partition) — Fig 7c.
inline constexpr const char* kMemeColoredCounter = "meme_colored";

MemeRun runMemeTracking(const PartitionedGraph& pg, InstanceProvider& provider,
                        const MemeOptions& options);

}  // namespace tsg
