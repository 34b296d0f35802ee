// Vertex-centric BSP engine — the Apache Giraph / Pregel stand-in used by
// the Fig. 5b baseline comparison.
//
// The unit of computation is a single vertex and messages address vertices.
// A run is a one-timestep TiBspEngine run over an attribute-free instance,
// with each partition served by a VertexAdapter (vertexcentric/adapter.h),
// so it shares the subgraph-centric runtime's workers, bus, barriers and
// metering. What differs is exactly what the paper attributes its speedups
// to: a vertex-centric SSSP needs ~graph-diameter supersteps and per-vertex
// message traffic, while the subgraph-centric version runs Dijkstra inside
// each subgraph and needs ~partition-hop supersteps.
//
// Messages carry one double (what Pregel's SSSP/BFS use); an optional
// min-combiner reduces each vertex's inbox like Giraph's
// MinimumDoubleCombiner (applied at the receiver).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "partition/partitioned_graph.h"
#include "metrics/stats.h"

namespace tsg {
namespace vertexcentric {

class VertexContext;
class VertexAdapter;

// User logic invoked per active vertex per superstep.
class VertexProgram {
 public:
  virtual ~VertexProgram() = default;
  virtual void compute(VertexContext& ctx) = 0;
};

enum class Combiner : std::uint8_t { kNone, kMin };

struct VcConfig {
  Combiner combiner = Combiner::kNone;
  std::int32_t max_supersteps = 100000;
  // Edge weights by template edge index; empty = unweighted (1.0).
  std::vector<double> edge_weights;
  // Fault tolerance: a single BSP carries no inter-timestep state, so
  // recovery is a restart from the seeded values (the run's initial
  // checkpoint). This caps how many restarts a run tolerates.
  std::int32_t max_recoveries = 8;
};

struct VcResult {
  RunStats stats;
  std::vector<double> values;  // final per-vertex values
  std::int32_t supersteps = 0;
};

class VertexCentricEngine {
 public:
  explicit VertexCentricEngine(const PartitionedGraph& pg);

  // Runs to quiescence. `initial_value(v)` seeds every vertex value;
  // vertices start active. Always barriered BSP.
  VcResult run(VertexProgram& program, const VcConfig& config,
               const std::function<double(VertexIndex)>& initial_value);

 private:
  const PartitionedGraph& pg_;
};

// Context passed to VertexProgram::compute.
class VertexContext {
 public:
  [[nodiscard]] VertexIndex vertex() const { return vertex_; }
  [[nodiscard]] std::int32_t superstep() const { return superstep_; }
  [[nodiscard]] const GraphTemplate& graphTemplate() const { return *tmpl_; }

  [[nodiscard]] double value() const { return *value_; }
  void setValue(double v) { *value_ = v; }

  [[nodiscard]] std::span<const double> messages() const { return messages_; }

  [[nodiscard]] double edgeWeight(EdgeIndex e) const {
    return edge_weights_->empty() ? 1.0 : (*edge_weights_)[e];
  }

  void sendTo(VertexIndex dst, double value);
  void voteToHalt() { *halted_ = 1; }

 private:
  friend class VcAdapter;

  VertexIndex vertex_ = 0;
  std::int32_t superstep_ = 0;
  const GraphTemplate* tmpl_ = nullptr;
  double* value_ = nullptr;
  std::uint8_t* halted_ = nullptr;
  std::span<const double> messages_;
  const std::vector<double>* edge_weights_ = nullptr;
  VertexAdapter* adapter_ = nullptr;
};

}  // namespace vertexcentric
}  // namespace tsg
