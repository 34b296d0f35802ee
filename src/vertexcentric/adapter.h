// VertexAdapter — runs a vertex program as a subgraph program on the core
// TiBspEngine. GoFFish argues that subgraph-centric execution generalizes
// vertex-centric; this is that argument as code. Both vertex engines derive
// their per-partition TiBspProgram from it, so execution, scheduling,
// recovery, checking and metering are the core engine's.
//
// Per active subgraph and superstep the adapter decodes the subgraph's
// messages into per-vertex inboxes (applying the min-combiner there), calls
// the vertex compute on every vertex that is at superstep 0, has messages
// or has not halted, and votes the subgraph halted only once all of its
// vertices have.
//
// The Giraph-baseline cost model of Fig. 5b is explicit adapter behaviour:
//   * each vertex message travels as its own Message (payload = destination
//     vertex + one double), so traffic is counted per vertex message;
//   * every vertex message goes through the MessageBus — even one to a
//     vertex of the same subgraph — so relaxation advances one hop per
//     superstep instead of sweeping the subgraph.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/program.h"
#include "partition/partitioned_graph.h"
#include "profile/profiler.h"

namespace tsg {
namespace vertexcentric {

class VertexAdapter : public TiBspProgram {
 public:
  // `sketches` is the run's per-partition pairs (empty when unprofiled);
  // the adapter feeds pair p, which outlives it.
  VertexAdapter(const PartitionedGraph& pg, PartitionId p, bool min_combiner,
                std::vector<profile::VertexSketches>& sketches);

  void compute(SubgraphContext& ctx) final;

  // Sends from the vertex being computed (called by the vertex contexts).
  void sendTo(VertexIndex dst, double value);
  void sendToNextTimestep(VertexIndex dst, double value);
  [[nodiscard]] SubgraphContext& subgraphContext() { return *ctx_; }

 protected:
  // One vertex's compute over its inbox; the program votes via `halted`.
  virtual void computeVertex(SubgraphContext& ctx, VertexIndex v,
                             std::span<const double> messages,
                             std::uint8_t& halted) = 0;

  const PartitionedGraph& pg_;
  const PartitionId partition_;

 private:
  const bool min_combiner_;
  SubgraphContext* ctx_ = nullptr;  // the subgraph being served
  // By partition-local vertex index.
  std::vector<std::vector<double>> inbox_;
  std::vector<std::uint8_t> has_msgs_;
  std::vector<std::uint8_t> halted_;
  // Profiler sampling: partition p's sketches (null when unprofiled), the
  // sampling cadence and per-vertex fan-out.
  profile::VertexSketches* const sketches_;
  std::uint64_t vertices_computed_ = 0;
  std::uint64_t sent_ = 0;
};

}  // namespace vertexcentric
}  // namespace tsg
