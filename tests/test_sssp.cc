#include "algorithms/sssp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <tuple>

#include "algorithms/codec.h"
#include "algorithms/reference.h"
#include "algorithms/subgraph_dijkstra.h"
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

// Exactness: labels must equal sequential Dijkstra bit for bit. Latencies
// are quantised to {0, 1, 2, 3} x 0.7 so zero-latency edges and equal-cost
// lattice paths tie everywhere; 0.7 is no binary fraction, so a label summed
// along a different path would round apart.
class SubgraphSsspExactness
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, Schedule>> {};

TEST_P(SubgraphSsspExactness, QuantisedLatticeMatchesDijkstraExactly) {
  const auto [k, schedule] = GetParam();
  auto tmpl = smallRoad(10, 10, 31);
  auto coll = roadCollection(tmpl, 1, 32);
  const std::size_t latency = tmpl->edgeSchema().requireIndex("latency");
  auto& weights = coll.mutableInstance(0).edgeCol(latency).asDouble();
  for (double& w : weights) {
    w = 0.7 * std::floor(w / 3.0);  // uniform [1, 10) -> {0, .7, 1.4, 2.1}
  }
  const auto pg = partitionGraph(tmpl, k, 33);
  DirectInstanceProvider provider(pg, coll);

  SsspOptions options;
  options.source = 55;
  options.latency_attr = latency;
  options.schedule = schedule;
  const auto run = runSubgraphSssp(pg, provider, options);
  EXPECT_EQ(run.distances, reference::dijkstra(*tmpl, weights, 55));
}

TEST_P(SubgraphSsspExactness, UnweightedMatchesDijkstraExactly) {
  const auto [k, schedule] = GetParam();
  auto tmpl = smallRoad(10, 10, 34);
  const auto coll = roadCollection(tmpl, 1, 35);
  const auto pg = partitionGraph(tmpl, k, 36);
  DirectInstanceProvider provider(pg, coll);

  SsspOptions options;
  options.source = 3;
  options.schedule = schedule;
  const auto run = runSubgraphSssp(pg, provider, options);
  EXPECT_EQ(run.distances, reference::dijkstra(*tmpl, {}, 3));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SubgraphSsspExactness,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(Schedule::kBsp, Schedule::kAsync)),
    [](const auto& param_info) {
      return "k" + std::to_string(std::get<0>(param_info.param)) +
             (std::get<1>(param_info.param) == Schedule::kBsp ? "_bsp"
                                                              : "_async");
    });

// Sends, at superstep 0, a label naming one of the sender's own vertices
// (or an out-of-range vertex) to another subgraph; the receiving kernel
// must abort rather than write another subgraph's label.
class MisroutingProgram final : public TiBspProgram {
 public:
  MisroutingProgram(std::vector<double>& labels, VertexIndex named)
      : named_(named), dijkstra_(labels, SubgraphDijkstra::kNoAttr) {}

  void compute(SubgraphContext& ctx) override {
    if (ctx.superstep() == 0 && ctx.subgraphId() == 0) {
      ctx.sendToSubgraph(1, encodeVertexLabels({{named_, 1.0}}));
    } else if (ctx.superstep() > 0) {
      dijkstra_.seedFromMessages(ctx);
      dijkstra_.run(ctx, std::numeric_limits<double>::infinity());
    }
    ctx.voteToHalt();
  }

 private:
  VertexIndex named_;
  SubgraphDijkstra dijkstra_;
};

void runMisrouted(const PartitionedGraph& pg, InstanceProvider& provider,
                  VertexIndex named) {
  std::vector<double> labels(pg.graphTemplate().numVertices(),
                             std::numeric_limits<double>::infinity());
  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  config.num_timesteps = 1;
  TiBspEngine engine(pg, provider);
  (void)engine.run(
      [&](PartitionId) {
        return std::make_unique<MisroutingProgram>(labels, named);
      },
      config);
}

TEST(SubgraphSssp, MisroutedLabelAborts) {
  auto tmpl = smallRoad(4, 4);
  const auto pg = partitionGraph(tmpl, 2);
  ASSERT_GE(pg.numSubgraphs(), 2u);
  ASSERT_NE(pg.subgraphOfVertex(pg.subgraph(0).vertices.front()), 1u);
  const auto coll = roadCollection(tmpl, 1);
  DirectInstanceProvider provider(pg, coll);
  EXPECT_DEATH(runMisrouted(pg, provider, pg.subgraph(0).vertices.front()),
               "outside the receiving subgraph");
  EXPECT_DEATH(runMisrouted(pg, provider, 1u << 20), "TSG_CHECK");
}

}  // namespace
}  // namespace tsg
