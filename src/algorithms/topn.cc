#include "algorithms/topn.h"

#include <algorithm>

#include "algorithms/codec.h"

namespace tsg {
namespace {

class TopNProgram final : public TiBspProgram {
 public:
  TopNProgram(const PartitionedGraph& pg, const TopNOptions& options,
              std::vector<std::vector<VertexIndex>>& top)
      : options_(options), top_(top), master_(pg.largestSubgraphOf(0)) {}

  void compute(SubgraphContext& ctx) override {
    if (ctx.superstep() == 0) {
      // Local Top-N candidates; only the best n can matter globally.
      std::vector<VertexLabel> scored;
      scored.reserve(ctx.subgraph().vertices.size());
      for (const VertexIndex v : ctx.subgraph().vertices) {
        const auto& tweets = ctx.vertexStringList(options_.tweets_attr, v);
        const double activity =
            static_cast<double>(ctx.graphTemplate().outDegree(v)) *
            static_cast<double>(1 + tweets.size());
        scored.push_back({v, activity});
      }
      const std::size_t keep = std::min(options_.n, scored.size());
      std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                        [](const VertexLabel& a, const VertexLabel& b) {
                          if (a.label != b.label) {
                            return a.label > b.label;
                          }
                          return a.vertex < b.vertex;
                        });
      scored.resize(keep);
      ctx.sendToSubgraph(master_, encodeVertexLabels(scored));
    } else if (ctx.subgraphId() == master_) {
      std::vector<VertexLabel> all;
      for (const Message& msg : ctx.messages()) {
        const auto batch = decodeVertexLabels(msg.payload);
        all.insert(all.end(), batch.begin(), batch.end());
      }
      std::sort(all.begin(), all.end(),
                [](const VertexLabel& a, const VertexLabel& b) {
                  if (a.label != b.label) {
                    return a.label > b.label;
                  }
                  return a.vertex < b.vertex;
                });
      const std::size_t keep = std::min(options_.n, all.size());
      auto& slot = top_[static_cast<std::size_t>(ctx.timestep() -
                                                 options_.first_timestep)];
      slot.clear();
      for (std::size_t i = 0; i < keep; ++i) {
        slot.push_back(all[i].vertex);
      }
    }
    ctx.voteToHalt();
  }

 private:
  const TopNOptions& options_;
  // Indexed by (timestep - first); only the master subgraph writes a slot,
  // from its partition's worker thread, so no lock is needed.
  std::vector<std::vector<VertexIndex>>& top_;
  SubgraphId master_;
};

}  // namespace

TopNRun runTopActiveVertices(const PartitionedGraph& pg,
                             InstanceProvider& provider,
                             const TopNOptions& options) {
  const auto count = static_cast<std::size_t>(
      options.num_timesteps < 0
          ? static_cast<std::int64_t>(provider.numInstances()) -
                options.first_timestep
          : options.num_timesteps);

  TopNRun run;
  run.top.resize(count);

  TiBspConfig config;
  config.pattern = Pattern::kIndependent;
  config.first_timestep = options.first_timestep;
  config.num_timesteps = options.num_timesteps;
  config.checkpoint_store = options.checkpoint_store;
  config.schedule = options.schedule;
  config.stream = options.stream;

  TiBspEngine engine(pg, provider);
  run.exec = engine.run(
      [&](PartitionId) {
        return std::make_unique<TopNProgram>(pg, options, run.top);
      },
      config);
  return run;
}

}  // namespace tsg
