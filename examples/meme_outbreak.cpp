// Meme outbreak analysis on a social network — the paper's §III-B use case
// ("rate of spread of a meme over time, when a user first receives it, and
// the inflection point ... used to place online ads and manage epidemics").
//
// Generates a power-law social graph, propagates a meme with the SIR model,
// then runs the sequentially dependent Meme Tracking algorithm and reports
// the spread curve, its inflection point, and per-partition activity.
//
// Demonstrates: SIR tweet generation, Meme Tracking (temporal BFS over
// space and time), per-timestep counters, Top-N spreaders.
#include <algorithm>
#include <cstdio>

#include "algorithms/meme.h"
#include "algorithms/topn.h"
#include "generators/instances.h"
#include "generators/topology.h"
#include "gofs/instance_provider.h"
#include "partition/partitioner.h"

using namespace tsg;

int main() {
  // 1. A 20k-user social network (power-law degree distribution).
  PreferentialAttachmentOptions topo;
  topo.num_vertices = 20000;
  topo.edges_per_vertex = 2;
  topo.seed = 11;
  auto tmpl_result =
      makePreferentialAttachment(topo, tweetVertexSchema(), AttributeSchema{});
  if (!tmpl_result.isOk()) {
    std::fprintf(stderr, "generator failed\n");
    return 1;
  }
  auto tmpl = std::make_shared<GraphTemplate>(std::move(tmpl_result).value());

  // 2. 30 timesteps of tweets: a meme seeded at 5 users spreads with 8%
  // hit probability per contact per timestep.
  SirTweetOptions sir;
  sir.num_timesteps = 30;
  sir.meme = "#cats";
  sir.hit_probability = 0.08;
  sir.num_seed_vertices = 5;
  sir.infectious_timesteps = 3;
  sir.seed = 23;
  auto coll_result = makeSirTweetInstances(tmpl, sir);
  if (!coll_result.isOk()) {
    std::fprintf(stderr, "SIR generation failed\n");
    return 1;
  }
  const auto collection = std::move(coll_result).value();

  // 3. Partition over 3 hosts, run Meme Tracking.
  const BfsPartitioner partitioner(5);
  auto pg_result =
      PartitionedGraph::build(tmpl, partitioner.assign(*tmpl, 3), 3);
  if (!pg_result.isOk()) {
    return 1;
  }
  const auto& pg = pg_result.value();
  DirectInstanceProvider provider(pg, collection);

  MemeOptions options;
  options.meme = sir.meme;
  options.tweets_attr = tmpl->vertexSchema().requireIndex("tweets");
  const auto run = runMemeTracking(pg, provider, options);

  // 4. The spread curve and its inflection point.
  const auto& counter = run.exec.stats.counters().at(kMemeColoredCounter);
  std::printf("meme %s spread curve (new users reached per timestep):\n",
              sir.meme.c_str());
  std::uint64_t cumulative = 0;
  std::uint64_t peak_rate = 0;
  std::size_t peak_t = 0;
  for (std::size_t t = 0; t < counter.size(); ++t) {
    std::uint64_t newly = 0;
    for (const auto per_part : counter[t]) {
      newly += per_part;
    }
    cumulative += newly;
    if (newly > peak_rate) {
      peak_rate = newly;
      peak_t = t;
    }
    std::printf("  t=%2zu: +%5llu  (cumulative %llu)", t,
                static_cast<unsigned long long>(newly),
                static_cast<unsigned long long>(cumulative));
    // A crude terminal sparkline.
    const int bars = static_cast<int>(std::min<std::uint64_t>(newly / 8, 60));
    for (int b = 0; b < bars; ++b) {
      std::fputc('#', stdout);
    }
    std::fputc('\n', stdout);
  }
  std::printf(
      "\ninflection point: timestep %zu (+%llu users) — ad placement after "
      "this buys less reach\n",
      peak_t, static_cast<unsigned long long>(peak_rate));

  // 5. Key individuals: the most active vertices while the meme peaked.
  TopNOptions topn;
  topn.tweets_attr = options.tweets_attr;
  topn.n = 5;
  topn.first_timestep = static_cast<Timestep>(peak_t);
  topn.num_timesteps = 1;
  const auto top = runTopActiveVertices(pg, provider, topn);
  std::printf("top spreader candidates at the peak:");
  for (const auto v : top.top.at(0)) {
    std::printf(" user%llu",
                static_cast<unsigned long long>(tmpl->vertexId(v)));
  }
  std::printf("\n");
  return cumulative > sir.num_seed_vertices ? 0 : 1;
}
