#include "algorithms/pagerank.h"

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "test_util.h"

namespace tsg {
namespace {

using testing::partitionGraph;
using testing::smallRoad;
using testing::smallSocial;

// One-instance provider over an attribute-less collection: PageRank only
// consumes topology.
struct TopologyFixture {
  explicit TopologyFixture(GraphTemplatePtr t, std::uint32_t k)
      : tmpl(std::move(t)),
        pg(partitionGraph(tmpl, k)),
        collection(tmpl, 0, 1) {
    collection.appendInstance();
    provider = std::make_unique<DirectInstanceProvider>(pg, collection);
  }
  GraphTemplatePtr tmpl;
  PartitionedGraph pg;
  TimeSeriesCollection collection;
  std::unique_ptr<DirectInstanceProvider> provider;
};

class PageRankProperty
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint32_t>> {
};

TEST_P(PageRankProperty, MatchesPowerIteration) {
  const auto [family, k] = GetParam();
  TopologyFixture fx(
      family == "road" ? smallRoad(8, 8) : smallSocial(150), k);
  PageRankOptions options;
  options.iterations = 20;
  const auto run = runSubgraphPageRank(fx.pg, *fx.provider, options);
  const auto expected =
      reference::pageRank(*fx.tmpl, options.damping, options.iterations);
  for (VertexIndex v = 0; v < fx.tmpl->numVertices(); ++v) {
    ASSERT_NEAR(run.ranks[v], expected[v], 1e-12)
        << "vertex " << v << " family=" << family << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PageRankProperty,
    ::testing::Combine(::testing::Values("road", "social"),
                       ::testing::Values(1u, 2u, 4u)),
    [](const auto& param_info) {
      return std::get<0>(param_info.param) + "_k" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(PageRank, RanksSumToApproximatelyOne) {
  TopologyFixture fx(smallSocial(200), 3);
  PageRankOptions options;
  options.iterations = 30;
  const auto run = runSubgraphPageRank(fx.pg, *fx.provider, options);
  const double sum =
      std::accumulate(run.ranks.begin(), run.ranks.end(), 0.0);
  // Connected undirected graph: no dangling mass, sum preserved.
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PageRank, HubsOutrankLeaves) {
  TopologyFixture fx(smallSocial(300), 2);
  PageRankOptions options;
  const auto run = runSubgraphPageRank(fx.pg, *fx.provider, options);
  // The highest-degree vertex must outrank the lowest-degree one.
  VertexIndex hub = 0;
  VertexIndex leaf = 0;
  for (VertexIndex v = 0; v < fx.tmpl->numVertices(); ++v) {
    if (fx.tmpl->outDegree(v) > fx.tmpl->outDegree(hub)) {
      hub = v;
    }
    if (fx.tmpl->outDegree(v) < fx.tmpl->outDegree(leaf)) {
      leaf = v;
    }
  }
  EXPECT_GT(run.ranks[hub], run.ranks[leaf]);
}

TEST(PageRank, ZeroIterationsLeavesUniform) {
  TopologyFixture fx(smallRoad(4, 4), 2);
  PageRankOptions options;
  options.iterations = 0;
  const auto run = runSubgraphPageRank(fx.pg, *fx.provider, options);
  const double uniform = 1.0 / static_cast<double>(fx.tmpl->numVertices());
  for (const double r : run.ranks) {
    EXPECT_DOUBLE_EQ(r, uniform);
  }
}

TEST(PageRank, SuperstepCountIsIterationsPlusOne) {
  TopologyFixture fx(smallRoad(5, 5), 2);
  PageRankOptions options;
  options.iterations = 7;
  const auto run = runSubgraphPageRank(fx.pg, *fx.provider, options);
  // iterations+1 compute supersteps + 1 EndOfTimestep record.
  EXPECT_EQ(run.exec.stats.totalSupersteps(),
            static_cast<std::uint64_t>(options.iterations) + 2);
}

}  // namespace
}  // namespace tsg
