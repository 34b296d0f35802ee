#include "algorithms/sssp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "algorithms/reference.h"
#include "generators/topology.h"
#include "test_util.h"

namespace tsg {
namespace {

using testing::partitionGraph;
using testing::roadCollection;
using testing::smallRoad;

// Parameterized over (grid size, partitions, seed): subgraph-centric SSSP
// must match sequential Dijkstra everywhere.
class SsspProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint32_t, int>> {};

TEST_P(SsspProperty, MatchesDijkstraOnRandomLatencies) {
  const auto [size, k, seed] = GetParam();
  auto tmpl = smallRoad(size, size, seed);
  const auto pg = partitionGraph(tmpl, k, seed + 1);
  const auto coll = roadCollection(tmpl, 2, seed + 2);
  DirectInstanceProvider provider(pg, coll);

  const std::size_t latency = tmpl->edgeSchema().requireIndex("latency");
  SsspOptions options;
  options.source = static_cast<VertexIndex>(seed % tmpl->numVertices());
  options.latency_attr = latency;
  options.timestep = 1;  // exercise a non-zero instance
  const auto run = runSubgraphSssp(pg, provider, options);

  const auto& weights = coll.instance(1).edgeCol(latency).asDouble();
  const auto expected = reference::dijkstra(*tmpl, weights, options.source);
  for (VertexIndex v = 0; v < tmpl->numVertices(); ++v) {
    if (std::isinf(expected[v])) {
      EXPECT_TRUE(std::isinf(run.distances[v])) << v;
    } else {
      EXPECT_NEAR(run.distances[v], expected[v], 1e-9) << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SsspProperty,
    ::testing::Combine(::testing::Values(6, 10), ::testing::Values(1u, 2u, 4u),
                       ::testing::Values(1, 7, 13)),
    [](const auto& param_info) {
      return "g" + std::to_string(std::get<0>(param_info.param)) + "_k" +
             std::to_string(std::get<1>(param_info.param)) + "_s" +
             std::to_string(std::get<2>(param_info.param));
    });

TEST(SubgraphSssp, UnweightedDegeneratesToBfs) {
  auto tmpl = testing::smallSocial(100);
  const auto pg = partitionGraph(tmpl, 3);
  // The tweet template has no latency attr; build an instance-less
  // collection for the provider.
  TimeSeriesCollection coll(tmpl, 0, 5);
  coll.appendInstance();
  DirectInstanceProvider provider(pg, coll);

  SsspOptions options;
  options.source = 0;  // kUnweighted by default
  const auto run = runSubgraphSssp(pg, provider, options);
  const auto levels = reference::bfsLevels(*tmpl, 0);
  for (VertexIndex v = 0; v < tmpl->numVertices(); ++v) {
    if (levels[v] < 0) {
      EXPECT_TRUE(std::isinf(run.distances[v]));
    } else {
      EXPECT_DOUBLE_EQ(run.distances[v], levels[v]);
    }
  }
}

TEST(SubgraphSssp, FewerSuperstepsThanDiameter) {
  // The headline subgraph-centric win: supersteps scale with partition
  // boundary hops, not graph diameter.
  auto tmpl = smallRoad(16, 16);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = roadCollection(tmpl, 1);
  DirectInstanceProvider provider(pg, coll);

  SsspOptions options;
  options.source = 0;
  options.latency_attr = tmpl->edgeSchema().requireIndex("latency");
  const auto run = runSubgraphSssp(pg, provider, options);

  const auto diameter = tmpl->estimateDiameter();
  EXPECT_LT(run.exec.stats.totalSupersteps(), diameter / 2)
      << "subgraph-centric SSSP should need far fewer supersteps than the "
         "diameter ("
      << diameter << ")";
}

TEST(SubgraphSssp, SourceDistanceIsZero) {
  auto tmpl = smallRoad(5, 5);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = roadCollection(tmpl, 1);
  DirectInstanceProvider provider(pg, coll);
  SsspOptions options;
  options.source = 12;
  options.latency_attr = 0;
  const auto run = runSubgraphSssp(pg, provider, options);
  EXPECT_DOUBLE_EQ(run.distances[12], 0.0);
}

TEST(SubgraphSssp, InvalidSourceAborts) {
  auto tmpl = smallRoad(4, 4);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = roadCollection(tmpl, 1);
  DirectInstanceProvider provider(pg, coll);
  SsspOptions options;
  options.source = 1 << 20;
  EXPECT_DEATH((void)runSubgraphSssp(pg, provider, options), "TSG_CHECK");
}

}  // namespace
}  // namespace tsg
