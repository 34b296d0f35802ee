// Profiler — the arm gate behind `tsgcli --profile=`, and the run-scoped
// pieces a profiled run builds.
//
// Cost model mirrors the protocol checker's gate: disarmed (the default),
// each engine reads the gate once per run and builds nothing. Arming
// records nothing by itself; it tells each engine run to build an
// attribution table, and the gate and its options are the only profiler
// state that outlives a run.
//
// Who owns what. The table is a value of the run: TiBspEngine::run shapes
// it with makeAttributionTable(), the seal that commits a superstep's
// record adds that superstep's closed subgraph units and their sends to
// it, and RunStats takes it when the run ends. So work of a wave a fault
// aborts is in neither, and a committed superstep a recovery replays is in
// both. The vertex engines own one VertexSketches per partition for the
// run, hand each adapter its partition's pair (the pairs outlive the
// programs a recovery re-creates), and fold them into the table's hot
// lists with foldVertexSketches(). Scheduler blame is not profiled: every
// run measures it per partition in its SuperstepRecords.
//
// Concurrency: table cells are written only in seals, with no task in
// flight; a sketch pair is offered to only by its partition's task. Waves
// and seals are ordered by the cluster's mutex, so each write
// happens-before the next one to the same integer.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "metrics/stats.h"
#include "partition/partitioned_graph.h"
#include "profile/sketch.h"

namespace tsg {

struct ProfileOptions {
  // Vertex-centric engines time every Nth vertex compute (per worker) and
  // scale the sampled weight by N, keeping the estimate unbiased while
  // bounding the clock overhead. 1 = every vertex.
  std::uint32_t sample_every = 8;
  // Space-saving sketch capacity (monitored vertices per sketch); error is
  // bounded by total_weight / capacity.
  std::size_t sketch_capacity = 64;
};

namespace profile {

namespace profile_detail {
extern std::atomic<bool> g_armed;
}  // namespace profile_detail

// The gate each engine reads once per run.
inline bool enabled() {
  return profile_detail::g_armed.load(std::memory_order_relaxed);  // tsg:mo(gate read; arming is coordinator-only, never during a run)
}

// Arms/disarms the profiler process-wide (tsgcli --profile=, benches).
// Coordinator-only, never during a run.
void arm(const ProfileOptions& options);
void disarm();

// An empty table shaped for one run of `pg`: [num_timesteps + 1 rows] x
// [subgraphs] (the extra row holds the Merge BSP, stamped timestep
// `first + count` like its RunStats records).
[[nodiscard]] AttributionTable makeAttributionTable(const PartitionedGraph& pg,
                                                    Timestep first_timestep,
                                                    std::int32_t num_timesteps);

// One partition's heavy-hitter sketches over per-vertex compute-ns and
// message fan-out.
struct VertexSketches {
  SpaceSavingSketch compute;
  SpaceSavingSketch fanout;
  std::uint32_t sample_every;

  explicit VertexSketches(const ProfileOptions& options)
      : compute(options.sketch_capacity),
        fanout(options.sketch_capacity),
        sample_every(options.sample_every) {}

  // One sampled vertex compute: `ns` and `fanout_msgs` are the raw sampled
  // measurements, scaled here by sample_every.
  void offer(VertexIndex vertex, std::uint64_t ns, std::uint64_t fanout_msgs) {
    compute.offer(vertex, ns * sample_every);
    if (fanout_msgs > 0) {
      fanout.offer(vertex, fanout_msgs * sample_every);
    }
  }
};

// One pair per partition of `pg` when armed, none otherwise.
[[nodiscard]] std::vector<VertexSketches> makeVertexSketches(
    const PartitionedGraph& pg);
// Merges the partition pairs into `stats`' table as its hot lists; a no-op
// without pairs or without a table.
void foldVertexSketches(const PartitionedGraph& pg,
                        const std::vector<VertexSketches>& sketches,
                        RunStats& stats);

}  // namespace profile
}  // namespace tsg
