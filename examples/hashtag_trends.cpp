// Hashtag trend analytics — the paper's §III-A eventually dependent use
// case: per-timestep occurrence counts of a hashtag across the network,
// merged into a global series, plus the rate of change ("is it trending?").
//
// Demonstrates: eventually dependent pattern (per-instance Compute +
// Merge BSP with a master subgraph) and the independent pattern via
// per-timestep Top-N.
#include <algorithm>
#include <cstdio>

#include "algorithms/hashtag.h"
#include "algorithms/topn.h"
#include "generators/instances.h"
#include "generators/topology.h"
#include "gofs/instance_provider.h"
#include "partition/partitioner.h"

using namespace tsg;

int main() {
  // A 15k-user social graph with two competing hashtags.
  PreferentialAttachmentOptions topo;
  topo.num_vertices = 15000;
  topo.edges_per_vertex = 2;
  topo.seed = 31;
  auto tmpl_result =
      makePreferentialAttachment(topo, tweetVertexSchema(), AttributeSchema{});
  if (!tmpl_result.isOk()) {
    return 1;
  }
  auto tmpl = std::make_shared<GraphTemplate>(std::move(tmpl_result).value());

  // #breaking spreads aggressively, #slowburn trickles.
  SirTweetOptions fast;
  fast.num_timesteps = 25;
  fast.meme = "#breaking";
  fast.hit_probability = 0.15;
  fast.num_seed_vertices = 4;
  fast.seed = 41;
  auto coll_result = makeSirTweetInstances(tmpl, fast);
  if (!coll_result.isOk()) {
    return 1;
  }
  auto collection = std::move(coll_result).value();

  // Overlay the second tag by merging a second SIR run into the tweets.
  SirTweetOptions slow = fast;
  slow.meme = "#slowburn";
  slow.hit_probability = 0.03;
  slow.seed = 43;
  auto slow_result = makeSirTweetInstances(tmpl, slow);
  if (!slow_result.isOk()) {
    return 1;
  }
  const std::size_t tweets_attr = tmpl->vertexSchema().requireIndex("tweets");
  for (Timestep t = 0; t < 25; ++t) {
    auto& dst = collection.mutableInstance(t).vertexCol(tweets_attr)
                    .asStringList();
    const auto& src = slow_result.value().instance(t).vertexCol(tweets_attr)
                          .asStringList();
    for (VertexIndex v = 0; v < tmpl->numVertices(); ++v) {
      dst[v].insert(dst[v].end(), src[v].begin(), src[v].end());
    }
  }

  const BfsPartitioner partitioner(9);
  auto pg_result =
      PartitionedGraph::build(tmpl, partitioner.assign(*tmpl, 3), 3);
  if (!pg_result.isOk()) {
    return 1;
  }
  const auto& pg = pg_result.value();
  DirectInstanceProvider provider(pg, collection);

  // Aggregate both tags.
  std::printf("tag        | peak count | peak t | trending span (rate>0)\n");
  for (const std::string tag : {"#breaking", "#slowburn"}) {
    HashtagOptions options;
    options.tag = tag;
    options.tweets_attr = tweets_attr;
    const auto run = runHashtagAggregation(pg, provider, options);

    const auto peak_it =
        std::max_element(run.counts.begin(), run.counts.end());
    std::size_t rising = 0;
    for (const auto rate : run.rate_of_change) {
      rising += rate > 0 ? 1 : 0;
    }
    std::printf("%-10s | %10llu | %6td | %zu of %zu timesteps\n",
                tag.c_str(),
                static_cast<unsigned long long>(*peak_it),
                peak_it - run.counts.begin(), rising, run.counts.size());
  }

  // Independent pattern: who dominated each timestep?
  TopNOptions topn;
  topn.tweets_attr = tweets_attr;
  topn.n = 1;
  const auto top = runTopActiveVertices(pg, provider, topn);
  std::printf("\nmost active user per timestep:");
  VertexIndex last = kInvalidVertexIndex;
  for (std::size_t t = 0; t < top.top.size(); ++t) {
    if (!top.top[t].empty() && top.top[t][0] != last) {
      last = top.top[t][0];
      std::printf(" t%zu:user%llu", t,
                  static_cast<unsigned long long>(tmpl->vertexId(last)));
    }
  }
  std::printf("\n");
  return 0;
}
