#include "algorithms/sssp.h"

#include <limits>

#include "algorithms/subgraph_dijkstra.h"

namespace tsg {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

static_assert(SsspOptions::kUnweighted == SubgraphDijkstra::kNoAttr);

class SsspProgram final : public TiBspProgram {
 public:
  SsspProgram(const SsspOptions& options, std::vector<double>& distances)
      : options_(options),
        distances_(distances),
        dijkstra_(distances, options.latency_attr) {}

  void compute(SubgraphContext& ctx) override {
    const Subgraph& sg = ctx.subgraph();
    if (ctx.superstep() == 0) {
      for (const VertexIndex v : sg.vertices) {
        distances_[v] = kInf;
      }
      if (ctx.ownsVertex(options_.source) &&
          ctx.partitionedGraph().subgraphOfVertex(options_.source) == sg.id) {
        dijkstra_.seed(ctx, options_.source, 0.0);
      }
    } else {
      dijkstra_.seedFromMessages(ctx);
    }
    dijkstra_.run(ctx, kInf);
    ctx.voteToHalt();
  }

 private:
  const SsspOptions& options_;
  std::vector<double>& distances_;  // shared; this partition's vertices only
  SubgraphDijkstra dijkstra_;       // relaxes distances_
};

}  // namespace

SsspRun runSubgraphSssp(const PartitionedGraph& pg, InstanceProvider& provider,
                        const SsspOptions& options) {
  TSG_CHECK(options.source < pg.graphTemplate().numVertices());
  SsspRun run;
  run.distances.assign(pg.graphTemplate().numVertices(), kInf);

  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  config.first_timestep = options.timestep;
  config.num_timesteps = 1;
  config.checkpoint_store = options.checkpoint_store;
  config.schedule = options.schedule;
  config.stream = options.stream;

  TiBspEngine engine(pg, provider);
  run.exec = engine.run(
      [&](PartitionId) {
        return std::make_unique<SsspProgram>(options, run.distances);
      },
      config);
  return run;
}

}  // namespace tsg
