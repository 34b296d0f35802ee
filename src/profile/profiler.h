// Profiler — the process-wide cost-attribution recorder behind
// `tsgcli --profile=`.
//
// Cost model mirrors the tracer and the protocol checker: disarmed (the
// default), every hook call site is one relaxed atomic load plus an
// untaken branch — no allocation, no locks, nothing observable. Armed, the
// engine brackets a run with beginRun()/take(); in between, the table is a
// preallocated [row][subgraph] grid of plain integers.
//
// Who charges what. The subgraph-centric engine (core/engine.cc) meters
// each subgraph unit once; the seal that commits a superstep's record hands
// its closed units to chargeSealed(), so work of a wave a fault aborts is in
// neither and a committed superstep a recovery replays is in both. The GoFS
// provider charges resident slice bytes on each pack load; the vertex
// engines feed the vertex sketches. Scheduler blame is not profiled: every
// run measures it per partition in its SuperstepRecords.
//
// Concurrency: no cell is shared, so none needs an atomic or a lock.
// chargeSealed() runs in a seal, with no task in flight; the other hooks
// run in the task of the partition they charge and write only its
// subgraphs' resident bytes and its own sketch shard. Waves and seals are
// ordered by the cluster's mutex, so each write happens-before the next one
// to the same integer. beginRun() and take() run on the coordinator before
// the cluster starts and after it joins. Outside that window the grid is
// empty and every hook's bounds check makes it a no-op.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "partition/partitioned_graph.h"
#include "metrics/attribution.h"
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

class Profiler {
 public:
  static Profiler& global();

  // The zero-cost gate every hook call site checks first.
  static bool enabled() {
    return armed_.load(std::memory_order_relaxed);  // tsg:mo(gate read; a stale miss only skips one sample)
  }

  // Arms/disarms the profiler process-wide (tsgcli --profile=, benches).
  // Coordinator-only, never during a run.
  void arm(const ProfileOptions& options);
  void disarm();
  [[nodiscard]] std::uint32_t sampleEvery() const { return sample_every_; }

  // Engine lifecycle: beginRun preallocates the [num_timesteps + 1 rows]
  // x [subgraphs] grid (the extra row holds the Merge BSP, stamped
  // timestep `first + count` like its RunStats records); take() folds the
  // partition shards into the table and empties the grid. Both run on the
  // engine's coordinator thread. `pg` must stay alive until take().
  void beginRun(const PartitionedGraph& pg, Timestep first_timestep,
                std::int32_t num_timesteps);
  [[nodiscard]] AttributionTable take();

  // A closed subgraph unit (resident_bytes 0), and one message it sent.
  struct UnitCharge {
    SubgraphId sg = kInvalidSubgraph;
    SubgraphCosts cost;
  };
  struct InboundCharge {
    SubgraphId dst = kInvalidSubgraph;
    std::uint64_t bytes = 0;
  };

  // --- recording hooks (no-ops unless a run window is open) ---

  // The seal of a superstep at timestep t: adds each unit to its (t, sg)
  // cell and each message to its destination's inbound totals.
  void chargeSealed(Timestep t, std::span<const UnitCharge> units,
                    std::span<const InboundCharge> inbound);
  // One sampled vertex compute (vertex-centric engines); `ns` and `fanout`
  // are the raw sampled measurements — the profiler scales by sampleEvery().
  void recordVertexSample(PartitionId p, VertexIndex vertex, std::uint64_t ns,
                          std::uint64_t fanout);
  // Resident attribute bytes of partition p's loaded instance at timestep
  // t, distributed across p's subgraphs proportional to vertex count.
  void recordResidentSlice(PartitionId p, Timestep t, std::uint64_t bytes);

 private:
  Profiler() = default;

  // The vertex sketches partition p's task feeds, merged by take().
  struct Shard {
    SpaceSavingSketch compute;
    SpaceSavingSketch fanout;
    explicit Shard(std::size_t capacity)
        : compute(capacity), fanout(capacity) {}
  };

  // Row index for timestep t, or -1 when outside the run window.
  [[nodiscard]] std::int32_t rowOf(Timestep t) const {
    const std::int32_t row = t - table_.first_timestep;
    return row >= 0 && row < table_.num_rows ? row : -1;
  }
  [[nodiscard]] SubgraphCosts* cellAt(std::int32_t row, SubgraphId sg) {
    if (row < 0 || sg >= table_.numSubgraphs()) {
      return nullptr;
    }
    return &table_.rows[static_cast<std::size_t>(row)][sg];
  }
  [[nodiscard]] std::size_t sketchCapacity() const;

  static std::atomic<bool> armed_;

  ProfileOptions options_;
  std::uint32_t sample_every_ = 8;

  // The run being recorded; empty (no rows, no shards) outside beginRun ..
  // take(), which is what makes every hook a no-op there.
  const PartitionedGraph* pg_ = nullptr;
  AttributionTable table_;
  std::vector<Shard> shards_;  // per partition
};

}  // namespace tsg
