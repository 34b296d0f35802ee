#include "vertexcentric/ti_engine.h"

#include <memory>
#include <utility>

#include "vertexcentric/adapter.h"

namespace tsg {
namespace vertexcentric {

// Serves partition p of a TemporalVertexProgram run. The program is shared
// by all partitions and holds every vertex's state.
class TvAdapter final : public VertexAdapter {
 public:
  TvAdapter(const PartitionedGraph& pg, PartitionId p,
            TemporalVertexProgram& program,
            std::vector<profile::VertexSketches>& sketches)
      : VertexAdapter(pg, p, /*min_combiner=*/false, sketches),
        program_(program) {}

  void endOfTimestep(SubgraphContext& ctx) override {
    for (const VertexIndex v : ctx.subgraph().vertices) {
      program_.endOfTimestep(v, ctx.timestep());
    }
  }

  // The shared program is one cut, carried by partition 0's slot.
  void saveState(BinaryWriter& w) const override {
    if (partition_ == 0) {
      program_.saveState(w);
    }
  }
  Status loadState(BinaryReader& r) override {
    return partition_ == 0 ? program_.loadState(r) : Status::ok();
  }

 protected:
  void computeVertex(SubgraphContext& ctx, VertexIndex v,
                     std::span<const double> messages,
                     std::uint8_t& halted) override {
    TemporalVertexContext vctx;
    vctx.vertex_ = v;
    vctx.timestep_ = ctx.timestep();
    vctx.superstep_ = ctx.superstep();
    vctx.tmpl_ = &pg_.graphTemplate();
    vctx.delta_ = ctx.delta();
    vctx.halted_ = &halted;
    vctx.messages_ = messages;
    vctx.adapter_ = this;
    program_.compute(vctx);
  }

 private:
  TemporalVertexProgram& program_;
};

double TemporalVertexContext::edgeDouble(std::size_t attr,
                                         EdgeIndex e) const {
  return adapter_->subgraphContext().edgeDouble(attr, e);
}

void TemporalVertexContext::sendTo(VertexIndex dst, double value) {
  adapter_->sendTo(dst, value);
}

void TemporalVertexContext::sendToNextTimestep(VertexIndex dst,
                                               double value) {
  adapter_->sendToNextTimestep(dst, value);
}

TemporalVertexEngine::TemporalVertexEngine(const PartitionedGraph& pg,
                                           InstanceProvider& provider)
    : pg_(pg), provider_(provider) {}

TemporalVcResult TemporalVertexEngine::run(TemporalVertexProgram& program,
                                           const TemporalVcConfig& config) {
  TiBspConfig tc;
  tc.pattern = Pattern::kSequentiallyDependent;
  tc.schedule = config.schedule;
  tc.first_timestep = config.first_timestep;
  tc.num_timesteps = config.num_timesteps;
  tc.max_supersteps_per_timestep = config.max_supersteps_per_timestep;
  tc.checkpoint_store = config.checkpoint_store;
  tc.max_recoveries = config.max_recoveries;
  tc.stream = config.stream;
  TiBspEngine engine(pg_, provider_);
  auto sketches = profile::makeVertexSketches(pg_);
  auto run = engine.run(
      [&](PartitionId p) {
        return std::make_unique<TvAdapter>(pg_, p, program, sketches);
      },
      tc);
  TemporalVcResult result;
  result.stats = std::move(run.stats);
  profile::foldVertexSketches(pg_, sketches, result.stats);
  result.timesteps_executed = run.timesteps_executed;
  return result;
}

}  // namespace vertexcentric
}  // namespace tsg
