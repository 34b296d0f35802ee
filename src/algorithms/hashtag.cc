#include "algorithms/hashtag.h"

#include <algorithm>

#include "algorithms/codec.h"

namespace tsg {
namespace {

class HashtagProgram final : public TiBspProgram {
 public:
  HashtagProgram(const PartitionedGraph& pg, const HashtagOptions& options,
                 std::vector<std::uint64_t>& counts)
      : options_(options),
        counts_(counts),
        master_(pg.largestSubgraphOf(0)) {}

  void compute(SubgraphContext& ctx) override {
    if (ctx.superstep() == 0) {
      std::uint64_t count = 0;
      for (const VertexIndex v : ctx.subgraph().vertices) {
        const auto& tweets = ctx.vertexStringList(options_.tweets_attr, v);
        count += static_cast<std::uint64_t>(
            std::count(tweets.begin(), tweets.end(), options_.tag));
      }
      ctx.sendMessageToMerge(encodeU64(count));
    }
    ctx.voteToHalt();
  }

  void merge(SubgraphContext& ctx) override {
    if (ctx.superstep() == 0) {
      // Assemble hash[]: one slot per timestep, filled from the messages
      // this subgraph sent itself across the timesteps (§III-A).
      std::vector<std::uint64_t> series(ctx.numTimestepsPlanned(), 0);
      for (const Message& msg : ctx.messages()) {
        const auto slot = static_cast<std::size_t>(msg.origin_timestep -
                                                   options_.first_timestep);
        TSG_CHECK(slot < series.size());
        series[slot] += decodeU64(msg.payload);
      }
      ctx.sendToSubgraph(master_, encodeU64List(series));
    } else if (ctx.subgraphId() == master_) {
      // Master.Compute: element-wise aggregation of every subgraph's series.
      std::vector<std::uint64_t> total(ctx.numTimestepsPlanned(), 0);
      for (const Message& msg : ctx.messages()) {
        const auto series = decodeU64List(msg.payload);
        TSG_CHECK(series.size() == total.size());
        for (std::size_t i = 0; i < series.size(); ++i) {
          total[i] += series[i];
        }
      }
      // Only the master writes counts_, once per merge; the coordinator
      // reads it after engine.run returns, ordered by the wave join.
      counts_ = total;
      for (std::size_t i = 0; i < total.size(); ++i) {
        ctx.output("hashtag," + options_.tag + "," +
                   std::to_string(options_.first_timestep +
                                  static_cast<Timestep>(i)) +
                   "," + std::to_string(total[i]));
      }
    }
    ctx.voteToHalt();
  }

 private:
  const HashtagOptions& options_;
  std::vector<std::uint64_t>& counts_;
  SubgraphId master_;
};

}  // namespace

HashtagRun runHashtagAggregation(const PartitionedGraph& pg,
                                 InstanceProvider& provider,
                                 const HashtagOptions& options) {
  HashtagRun run;

  TiBspConfig config;
  config.pattern = Pattern::kEventuallyDependent;
  config.first_timestep = options.first_timestep;
  config.num_timesteps = options.num_timesteps;
  config.maintenance_period = options.maintenance_period;
  config.checkpoint_store = options.checkpoint_store;
  config.schedule = options.schedule;
  config.stream = options.stream;

  TiBspEngine engine(pg, provider);
  run.exec = engine.run(
      [&](PartitionId) {
        return std::make_unique<HashtagProgram>(pg, options, run.counts);
      },
      config);

  run.rate_of_change.assign(run.counts.size(), 0);
  for (std::size_t i = 1; i < run.counts.size(); ++i) {
    run.rate_of_change[i] = static_cast<std::int64_t>(run.counts[i]) -
                            static_cast<std::int64_t>(run.counts[i - 1]);
  }
  return run;
}

}  // namespace tsg
