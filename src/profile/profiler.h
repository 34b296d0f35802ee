// Profiler — the process-wide cost-attribution recorder behind
// `tsgcli --profile=`.
//
// Cost model mirrors the tracer and the protocol checker: disarmed (the
// default), every hook call site is one relaxed atomic load plus an
// untaken branch — no allocation, no locks, nothing observable. Armed, the
// engines bracket a run with beginRun()/take(); in between, hooks charge
// costs into a preallocated [row][subgraph] grid of atomic cells.
//
// Hook placement contract (the reconciliation invariant depends on it):
// recordCompute / recordSend calls sit immediately adjacent to the engine
// meter increments (`subgraphs_computed`, `msgs_sent`, `bytes_sent`) that
// feed SuperstepRecord parts and the per-partition MetricsRegistry
// counters. Summing the table over a partition's subgraphs therefore
// reproduces those totals exactly; tests/test_profile.cc asserts it for
// all nine shipped algorithms.
//
// Concurrency: cells are relaxed atomics because inbound charges
// (recordSend's destination side) cross partitions, so several partition
// workers may update one subgraph's cells at once. take() runs after the
// engine joined its workers, so it reads a quiesced table. Per-vertex
// sketch offers are serialized by a per-partition mutex taken only on the
// sampled (every Nth vertex) path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
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
  void arm(const ProfileOptions& options);
  void disarm();
  [[nodiscard]] std::uint32_t sampleEvery() const { return sample_every_; }

  // Engine lifecycle: beginRun preallocates the [num_timesteps + 1 rows]
  // x [subgraphs] grid (the extra row holds the Merge BSP, stamped
  // timestep `first + count` like its RunStats records); take() freezes
  // the table, merges the sketches and ends the recording window. Both run
  // on the engine's coordinator thread. `pg` must stay alive until take().
  void beginRun(const PartitionedGraph& pg, Timestep first_timestep,
                std::int32_t num_timesteps);
  [[nodiscard]] AttributionTable take();

  // --- recording hooks (no-ops unless a run window is open) ---

  // One program compute invocation on subgraph sg at timestep t.
  void recordCompute(SubgraphId sg, Timestep t, std::int64_t ns);
  // One message: outbound charged to (src, t), inbound to dst's run total.
  void recordSend(SubgraphId src, SubgraphId dst, Timestep t,
                  std::uint64_t bytes);
  // One sampled vertex compute (vertex-centric engines); `ns` and `fanout`
  // are the raw sampled measurements — the profiler scales by sampleEvery().
  void recordVertexSample(PartitionId p, VertexIndex vertex, std::uint64_t ns,
                          std::uint64_t fanout);
  // Resident attribute bytes of partition p's loaded instance at timestep
  // t, distributed across p's subgraphs proportional to vertex count.
  void recordResidentSlice(PartitionId p, Timestep t, std::uint64_t bytes);
  // Scheduler blame: wall-clock other partitions spent waiting because of
  // p (BSP barrier wait behind the round's straggler; async ready-queue
  // gap ended by p's task).
  void recordWaitCaused(PartitionId p, std::int64_t ns);
  // p's task was stolen by another worker (p is the straggling victim).
  void recordStealVictim(PartitionId p);

  // Recovery rollback: zeroes rows for timesteps >= t, matching the
  // engine's meter reset when it replays from a checkpoint. Inbound/
  // scheduler run totals are not rolled back (documented approximation;
  // the exact-reconciliation tests run fault-free).
  void resetRowsFrom(Timestep t);

 private:
  Profiler() = default;

  struct Cell {
    std::atomic<std::int64_t> compute_ns{0};
    std::atomic<std::uint64_t> computes{0};
    std::atomic<std::uint64_t> msgs_out{0};
    std::atomic<std::uint64_t> bytes_out{0};
    std::atomic<std::uint64_t> resident_bytes{0};
  };
  struct SketchShard {
    std::mutex mutex;
    SpaceSavingSketch compute;
    SpaceSavingSketch fanout;
    SketchShard(std::size_t capacity) : compute(capacity), fanout(capacity) {}
  };

  // Row index for timestep t, or -1 when outside the run window.
  [[nodiscard]] std::int32_t rowOf(Timestep t) const {
    const std::int32_t row = t - first_timestep_;
    return row >= 0 && row < num_rows_ ? row : -1;
  }
  [[nodiscard]] Cell* cellAt(std::int32_t row, SubgraphId sg) {
    if (row < 0 || sg >= num_subgraphs_) {
      return nullptr;
    }
    return &cells_[static_cast<std::size_t>(row) * num_subgraphs_ + sg];
  }

  static std::atomic<bool> armed_;

  // Run-window gate for hooks (beginRun sets, take clears). Separate from
  // armed_ so scheduler/gofs activity outside a run charges nothing.
  std::atomic<bool> run_active_{false};

  ProfileOptions options_;
  std::uint32_t sample_every_ = 8;

  const PartitionedGraph* pg_ = nullptr;
  Timestep first_timestep_ = 0;
  std::int32_t num_rows_ = 0;
  std::uint32_t num_subgraphs_ = 0;
  std::vector<Cell> cells_;  // [row * num_subgraphs + sg]
  std::vector<std::atomic<std::uint64_t>> msgs_in_;
  std::vector<std::atomic<std::uint64_t>> bytes_in_;
  std::vector<std::atomic<std::int64_t>> wait_caused_ns_;
  std::vector<std::atomic<std::uint64_t>> steal_victims_;
  std::vector<std::unique_ptr<SketchShard>> shards_;  // per partition
};

}  // namespace tsg
