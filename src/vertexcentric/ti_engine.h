// Vertex-centric TI-BSP — the re-engineering the paper hypothesizes about
// in §IV-C ("Giraph does not natively support the TI-BSP model or message
// passing between instances, though with a fair bit of engineering, it is
// possible") and §VI ("these abstractions can be extended to other
// partition- and vertex-centric programming frameworks too").
//
// A run is a sequentially dependent TiBspEngine run whose partitions are
// served by VertexAdapters (vertexcentric/adapter.h): the outer loop
// iterates graph instances, the inner BSP runs per VERTEX with
// double-valued messages. Per-vertex algorithm state persists across
// timesteps inside the program (vertices are owned by fixed partitions, so
// shared arrays are race-free), and per-vertex messages can be deferred to
// the next timestep with sendToNextTimestep.
//
// The paper bounds a TI-BSP Giraph port at [τ, n·τ] where τ is one
// vertex-centric SSSP; bench_fig5b_giraph measures our port against that
// prediction.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/serialize.h"
#include "core/engine.h"  // Schedule
#include "gofs/instance_provider.h"
#include "partition/partitioned_graph.h"
#include "metrics/stats.h"

namespace tsg {

class CheckpointStore;  // gofs/checkpoint.h

namespace vertexcentric {

class TemporalVertexContext;
class VertexAdapter;

// User logic invoked per active vertex, per superstep, per timestep.
class TemporalVertexProgram {
 public:
  virtual ~TemporalVertexProgram() = default;
  virtual void compute(TemporalVertexContext& ctx) = 0;
  // Invoked once per owned vertex when a timestep's BSP quiesces.
  virtual void endOfTimestep(VertexIndex v, Timestep t) {
    (void)v;
    (void)t;
  }
  // Checkpoint hooks (cf. TiBspProgram). Per-vertex algorithm state lives
  // in the program across timesteps, so a program used with a checkpoint
  // store must round-trip every member that outlives one timestep. The
  // program is shared by all partitions; partition 0's cut carries it.
  virtual void saveState(BinaryWriter& w) const { (void)w; }
  virtual Status loadState(BinaryReader& r) {
    (void)r;
    return Status::ok();
  }
};

struct TemporalVcConfig {
  Timestep first_timestep = 0;
  std::int32_t num_timesteps = -1;  // -1 = all instances
  std::int32_t max_supersteps_per_timestep = 100000;

  // kAsync runs each timestep's BSP as dependency-driven waves (see
  // TiBspConfig::schedule): partitions whose vertices all halted and whose
  // inboxes are empty skip rounds, stragglers get their tasks stolen.
  // Output is identical to kBsp by construction.
  Schedule schedule = Schedule::kBsp;

  // Fault tolerance (see gofs/checkpoint.h and TiBspConfig). The single
  // shared program is restored in place via loadState on recovery; null
  // means faults abort.
  CheckpointStore* checkpoint_store = nullptr;
  std::int32_t max_recoveries = 8;

  // Streaming ingestion (cf. TiBspConfig::stream): when set, the timestep
  // loop blocks on stream->awaitTimestep(t) before executing t. Vertex
  // programs never opt into the incremental skip (every vertex computes at
  // superstep 0), so the dirty tracker is unused here.
  TimestepStream* stream = nullptr;
};

struct TemporalVcResult {
  RunStats stats;
  Timestep timesteps_executed = 0;
};

class TemporalVertexEngine {
 public:
  TemporalVertexEngine(const PartitionedGraph& pg, InstanceProvider& provider);

  TemporalVcResult run(TemporalVertexProgram& program,
                       const TemporalVcConfig& config);

 private:
  const PartitionedGraph& pg_;
  InstanceProvider& provider_;
};

class TemporalVertexContext {
 public:
  [[nodiscard]] VertexIndex vertex() const { return vertex_; }
  [[nodiscard]] Timestep timestep() const { return timestep_; }
  [[nodiscard]] std::int32_t superstep() const { return superstep_; }
  [[nodiscard]] const GraphTemplate& graphTemplate() const { return *tmpl_; }
  [[nodiscard]] std::int64_t delta() const { return delta_; }

  [[nodiscard]] std::span<const double> messages() const { return messages_; }

  // Instance edge attribute value (edge must leave an owned vertex).
  [[nodiscard]] double edgeDouble(std::size_t attr, EdgeIndex e) const;

  // Within this timestep's BSP.
  void sendTo(VertexIndex dst, double value);
  // To a vertex at superstep 0 of the next timestep.
  void sendToNextTimestep(VertexIndex dst, double value);
  void voteToHalt() { *halted_ = 1; }

 private:
  friend class TvAdapter;

  VertexIndex vertex_ = 0;
  Timestep timestep_ = 0;
  std::int32_t superstep_ = 0;
  const GraphTemplate* tmpl_ = nullptr;
  std::int64_t delta_ = 1;
  std::uint8_t* halted_ = nullptr;
  std::span<const double> messages_;
  VertexAdapter* adapter_ = nullptr;
};

}  // namespace vertexcentric
}  // namespace tsg
