#include "vertexcentric/engine.h"

#include <memory>
#include <utility>

#include "core/engine.h"
#include "gofs/checkpoint.h"
#include "vertexcentric/adapter.h"

namespace tsg {
namespace vertexcentric {

// Serves partition p of a VertexProgram run. Values live in one vector
// shared by all partitions; each partition writes only its own vertices.
class VcAdapter final : public VertexAdapter {
 public:
  VcAdapter(const PartitionedGraph& pg, PartitionId p, VertexProgram& program,
            const VcConfig& config, std::vector<double>& values,
            std::vector<profile::VertexSketches>& sketches)
      : VertexAdapter(pg, p, config.combiner == Combiner::kMin, sketches),
        program_(program),
        edge_weights_(config.edge_weights),
        values_(values) {}

  // The checkpointed state is this partition's slice of the values, so the
  // run's initial cut holds the seeded values and a recovery restarts there.
  void saveState(BinaryWriter& w) const override {
    for (const VertexIndex v : pg_.partition(partition_).vertices) {
      w.writeDouble(values_[v]);
    }
  }
  Status loadState(BinaryReader& r) override {
    for (const VertexIndex v : pg_.partition(partition_).vertices) {
      TSG_RETURN_IF_ERROR(r.readDouble(values_[v]));
    }
    return Status::ok();
  }

 protected:
  void computeVertex(SubgraphContext& ctx, VertexIndex v,
                     std::span<const double> messages,
                     std::uint8_t& halted) override {
    VertexContext vctx;
    vctx.vertex_ = v;
    vctx.superstep_ = ctx.superstep();
    vctx.tmpl_ = &pg_.graphTemplate();
    vctx.value_ = &values_[v];
    vctx.halted_ = &halted;
    vctx.messages_ = messages;
    vctx.edge_weights_ = &edge_weights_;
    vctx.adapter_ = this;
    program_.compute(vctx);
  }

 private:
  VertexProgram& program_;
  const std::vector<double>& edge_weights_;
  std::vector<double>& values_;
};

namespace {

// The single attribute-free instance a plain vertex-centric BSP runs over.
class EmptyInstanceProvider final : public InstanceProvider {
 public:
  [[nodiscard]] std::size_t numInstances() const override { return 1; }
  [[nodiscard]] std::int64_t t0() const override { return 0; }
  [[nodiscard]] std::int64_t delta() const override { return 1; }
  const PartitionInstanceData& instanceFor(PartitionId, Timestep) override {
    return empty_;
  }
  std::int64_t takeLoadNs(PartitionId) override { return 0; }

 private:
  PartitionInstanceData empty_;
};

}  // namespace

void VertexContext::sendTo(VertexIndex dst, double value) {
  adapter_->sendTo(dst, value);
}

VertexCentricEngine::VertexCentricEngine(const PartitionedGraph& pg)
    : pg_(pg) {}

VcResult VertexCentricEngine::run(
    VertexProgram& program, const VcConfig& config,
    const std::function<double(VertexIndex)>& initial_value) {
  const GraphTemplate& tmpl = pg_.graphTemplate();
  TSG_CHECK(config.edge_weights.empty() ||
            config.edge_weights.size() == tmpl.numEdges());

  VcResult result;
  result.values.resize(tmpl.numVertices());
  for (VertexIndex v = 0; v < tmpl.numVertices(); ++v) {
    result.values[v] = initial_value(v);
  }

  EmptyInstanceProvider provider;
  MemoryCheckpointStore store;
  TiBspConfig tc;
  tc.pattern = Pattern::kIndependent;
  tc.max_supersteps_per_timestep = config.max_supersteps;
  tc.checkpoint_store = &store;
  tc.max_recoveries = config.max_recoveries;
  TiBspEngine engine(pg_, provider);
  auto sketches = profile::makeVertexSketches(pg_);
  auto run = engine.run(
      [&](PartitionId p) {
        return std::make_unique<VcAdapter>(pg_, p, program, config,
                                           result.values, sketches);
      },
      tc);
  result.stats = std::move(run.stats);
  profile::foldVertexSketches(pg_, sketches, result.stats);
  // The end-of-timestep round is the last record; it runs at superstep
  // index = the number of supersteps the BSP took.
  TSG_CHECK(!result.stats.supersteps().empty());
  result.supersteps = result.stats.supersteps().back().superstep;
  return result;
}

}  // namespace vertexcentric
}  // namespace tsg
