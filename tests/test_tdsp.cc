#include "algorithms/tdsp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <tuple>

#include "algorithms/reference.h"
#include "test_util.h"

namespace tsg {
namespace {

using testing::partitionGraph;
using testing::roadCollection;
using testing::share;
using testing::smallRoad;
using testing::unwrap;

// The paper's Fig. 5a worked example: with δ = 5 the naive SSSP route
// S→E→C estimates 7 min but actually takes 35; TDSP finds S→A (5 min in
// g⁰), waits at A through g¹, then A→C in 4 min during g² — total 14.
class PaperExample : public ::testing::Test {
 protected:
  void SetUp() override {
    GraphTemplateBuilder builder(/*directed=*/true);
    builder.edgeSchema().add("latency", AttrType::kDouble);
    for (VertexId id = 0; id < 7; ++id) {  // S,A,B,C,D,E,F = 0..6
      builder.addVertex(id);
    }
    // Edge indices fixed by insertion order.
    builder.addEdge(0, kS, kA);
    builder.addEdge(1, kS, kE);
    builder.addEdge(2, kE, kC);
    builder.addEdge(3, kA, kC);
    builder.addEdge(4, kC, kB);
    builder.addEdge(5, kC, kD);
    builder.addEdge(6, kE, kF);
    tmpl_ = share(unwrap(builder.build()));

    collection_ = TimeSeriesCollection(tmpl_, /*t0=*/0, /*delta=*/5);
    // Latencies keyed by (src, dst); unlisted edges default to 200.
    addInstance({{{kS, kA}, 5}, {{kS, kE}, 2}, {{kE, kC}, 5}, {{kA, kC}, 30}});
    addInstance({{{kS, kA}, 15}, {{kS, kE}, 10}, {{kE, kC}, 30}, {{kA, kC}, 15}});
    addInstance({{{kS, kA}, 15}, {{kS, kE}, 10}, {{kE, kC}, 30}, {{kA, kC}, 4}});
    addInstance({{{kS, kA}, 15}, {{kS, kE}, 10}, {{kC, kB}, 10}, {{kC, kD}, 10}});
    addInstance({{{kS, kA}, 15}, {{kS, kE}, 10}, {{kC, kB}, 10}, {{kC, kD}, 10}});
  }

  // Edge indices are CSR slots (bucketed by source), not insertion order,
  // so latencies are addressed by endpoints.
  void addInstance(
      const std::map<std::pair<VertexIndex, VertexIndex>, double>& values) {
    auto& inst = collection_.appendInstance();
    auto& latencies = inst.edgeCol(0).asDouble();
    std::fill(latencies.begin(), latencies.end(), 200.0);
    for (const auto& [key, latency] : values) {
      bool found = false;
      for (const auto& oe : tmpl_->outEdges(key.first)) {
        if (oe.dst == key.second) {
          latencies[oe.edge] = latency;
          found = true;
        }
      }
      ASSERT_TRUE(found) << key.first << "->" << key.second;
    }
  }

  static constexpr VertexIndex kS = 0, kA = 1, kB = 2, kC = 3, kD = 4,
                               kE = 5, kF = 6;
  GraphTemplatePtr tmpl_;
  TimeSeriesCollection collection_;
};

TEST_F(PaperExample, TdspFindsTheFourteenMinuteRoute) {
  for (const std::uint32_t k : {1u, 2u, 3u}) {
    const auto pg = partitionGraph(tmpl_, k);
    DirectInstanceProvider provider(pg, collection_);
    TdspOptions options;
    options.source = kS;
    options.latency_attr = 0;
    const auto run = runTdsp(pg, provider, options);

    EXPECT_DOUBLE_EQ(run.tdsp[kS], 0.0) << "k=" << k;
    EXPECT_DOUBLE_EQ(run.tdsp[kA], 5.0) << "k=" << k;   // S→A in g0
    EXPECT_DOUBLE_EQ(run.tdsp[kE], 2.0) << "k=" << k;   // S→E in g0
    EXPECT_DOUBLE_EQ(run.tdsp[kC], 14.0) << "k=" << k;  // wait at A, A→C in g2
    EXPECT_EQ(run.finalized_at[kC], 2) << "k=" << k;
    EXPECT_EQ(run.finalized_at[kA], 0) << "k=" << k;
  }
}

TEST_F(PaperExample, NaiveSsspEstimateWouldBeSeven) {
  // Confirms the setup reproduces the paper's suboptimality argument:
  // Dijkstra on g0 alone estimates S→C at 7 via E.
  const auto& weights = collection_.instance(0).edgeCol(0).asDouble();
  const auto dist = reference::dijkstra(*tmpl_, weights, kS);
  EXPECT_DOUBLE_EQ(dist[kC], 7.0);
}

TEST_F(PaperExample, MatchesSequentialReference) {
  const auto expected =
      reference::timeDependentShortestPath(*tmpl_, collection_, 0, kS);
  const auto pg = partitionGraph(tmpl_, 2);
  DirectInstanceProvider provider(pg, collection_);
  TdspOptions options;
  options.source = kS;
  options.latency_attr = 0;
  const auto run = runTdsp(pg, provider, options);
  for (VertexIndex v = 0; v < tmpl_->numVertices(); ++v) {
    EXPECT_EQ(run.finalized_at[v], expected.finalized_at[v]) << v;
    if (!std::isinf(expected.tdsp[v])) {
      EXPECT_NEAR(run.tdsp[v], expected.tdsp[v], 1e-9) << v;
    }
  }
}

// Property sweep: distributed TDSP == sequential reference on random
// road graphs across sizes, partition counts and seeds.
class TdspProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint32_t, int>> {};

TEST_P(TdspProperty, MatchesReference) {
  const auto [size, k, seed] = GetParam();
  auto tmpl = smallRoad(size, size, seed);
  const auto pg = partitionGraph(tmpl, k, seed + 1);
  const auto coll = roadCollection(tmpl, 12, seed + 2, /*delta=*/5);
  DirectInstanceProvider provider(pg, coll);

  const std::size_t latency = tmpl->edgeSchema().requireIndex("latency");
  const VertexIndex source =
      static_cast<VertexIndex>((seed * 31) % tmpl->numVertices());

  TdspOptions options;
  options.source = source;
  options.latency_attr = latency;
  const auto run = runTdsp(pg, provider, options);
  const auto expected =
      reference::timeDependentShortestPath(*tmpl, coll, latency, source);

  for (VertexIndex v = 0; v < tmpl->numVertices(); ++v) {
    ASSERT_EQ(run.finalized_at[v], expected.finalized_at[v])
        << "vertex " << v << " size=" << size << " k=" << k << " s=" << seed;
    if (expected.finalized_at[v] >= 0) {
      ASSERT_NEAR(run.tdsp[v], expected.tdsp[v], 1e-9) << v;
    } else {
      ASSERT_TRUE(std::isinf(run.tdsp[v])) << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TdspProperty,
    ::testing::Combine(::testing::Values(5, 8), ::testing::Values(1u, 3u, 5u),
                       ::testing::Values(2, 9, 21)),
    [](const auto& param_info) {
      return "g" + std::to_string(std::get<0>(param_info.param)) + "_k" +
             std::to_string(std::get<1>(param_info.param)) + "_s" +
             std::to_string(std::get<2>(param_info.param));
    });

TEST(Tdsp, WhileModeStopsEarlyOnceAllFinalized) {
  // Generous horizons: everything finalizes within a few timesteps, so
  // While-mode must not touch all 40 instances.
  auto tmpl = smallRoad(6, 6);
  const auto pg = partitionGraph(tmpl, 2);
  RoadInstanceOptions rio;
  rio.num_timesteps = 40;
  rio.min_latency = 0.1;
  rio.max_latency = 0.5;
  rio.delta = 5;
  const auto coll = unwrap(makeRoadInstances(tmpl, rio));
  DirectInstanceProvider provider(pg, coll);

  TdspOptions options;
  options.source = 0;
  options.latency_attr = 0;
  options.while_mode = true;
  const auto run = runTdsp(pg, provider, options);
  EXPECT_LT(run.exec.timesteps_executed, 10);
  for (VertexIndex v = 0; v < tmpl->numVertices(); ++v) {
    EXPECT_GE(run.finalized_at[v], 0) << v;
  }
}

TEST(Tdsp, WhileModeResultsIdenticalToFixedRange) {
  auto tmpl = smallRoad(6, 6, 4);
  const auto pg = partitionGraph(tmpl, 3);
  const auto coll = roadCollection(tmpl, 15, 8);
  DirectInstanceProvider provider(pg, coll);

  TdspOptions fixed;
  fixed.source = 5;
  fixed.latency_attr = 0;
  fixed.while_mode = false;
  const auto run_fixed = runTdsp(pg, provider, fixed);

  TdspOptions while_mode = fixed;
  while_mode.while_mode = true;
  const auto run_while = runTdsp(pg, provider, while_mode);

  EXPECT_EQ(run_fixed.finalized_at, run_while.finalized_at);
  EXPECT_EQ(run_fixed.tdsp, run_while.tdsp);
  EXPECT_LE(run_while.exec.timesteps_executed,
            run_fixed.exec.timesteps_executed);
}

TEST(Tdsp, FinalizedCounterSumsToReachableVertices) {
  auto tmpl = smallRoad(7, 7);
  const auto pg = partitionGraph(tmpl, 3);
  const auto coll = roadCollection(tmpl, 20);
  DirectInstanceProvider provider(pg, coll);
  TdspOptions options;
  options.source = 0;
  options.latency_attr = 0;
  const auto run = runTdsp(pg, provider, options);

  std::uint64_t reached = 0;
  for (const auto t : run.finalized_at) {
    reached += t >= 0 ? 1 : 0;
  }
  EXPECT_EQ(run.exec.stats.counterTotal(kTdspFinalizedCounter), reached);
}

TEST(Tdsp, EmitOutputsProducesOneLinePerFinalizedVertex) {
  auto tmpl = smallRoad(4, 4);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = roadCollection(tmpl, 20);
  DirectInstanceProvider provider(pg, coll);
  TdspOptions options;
  options.source = 0;
  options.latency_attr = 0;
  options.emit_outputs = true;
  const auto run = runTdsp(pg, provider, options);
  std::uint64_t reached = 0;
  for (const auto t : run.finalized_at) {
    reached += t >= 0 ? 1 : 0;
  }
  EXPECT_EQ(run.exec.outputs.size(), reached);
  for (const auto& line : run.exec.outputs) {
    EXPECT_EQ(line.rfind("tdsp,", 0), 0u) << line;
  }
}

TEST(TdspClosures, MatchesReferenceWithRandomClosures) {
  // isExists support: roads close randomly per timestep; distributed and
  // reference must agree on arrivals and finalization times.
  RoadNetworkOptions topo;
  topo.width = 7;
  topo.height = 7;
  topo.seed = 5;
  auto tmpl = testing::share(testing::unwrap(
      makeRoadNetwork(topo, AttributeSchema{}, roadEdgeSchemaWithClosures())));
  RoadInstanceOptions rio;
  rio.num_timesteps = 12;
  rio.closure_probability = 0.3;
  rio.seed = 6;
  const auto coll = unwrap(makeRoadInstances(tmpl, rio));

  const std::size_t latency = tmpl->edgeSchema().requireIndex("latency");
  const std::size_t exists = tmpl->edgeSchema().requireIndex("exists");
  for (const std::uint32_t k : {1u, 3u}) {
    const auto pg = partitionGraph(tmpl, k);
    DirectInstanceProvider provider(pg, coll);
    TdspOptions options;
    options.source = 0;
    options.latency_attr = latency;
    options.exists_attr = exists;
    const auto run = runTdsp(pg, provider, options);
    const auto expected = reference::timeDependentShortestPath(
        *tmpl, coll, latency, 0, exists);
    ASSERT_EQ(run.finalized_at, expected.finalized_at) << "k=" << k;
    for (VertexIndex v = 0; v < tmpl->numVertices(); ++v) {
      if (expected.finalized_at[v] >= 0) {
        ASSERT_NEAR(run.tdsp[v], expected.tdsp[v], 1e-9) << v;
      }
    }
  }
}

TEST(TdspClosures, AllRoadsClosedStrandsTheSource) {
  RoadNetworkOptions topo;
  topo.width = 4;
  topo.height = 4;
  auto tmpl = testing::share(testing::unwrap(
      makeRoadNetwork(topo, AttributeSchema{}, roadEdgeSchemaWithClosures())));
  RoadInstanceOptions rio;
  rio.num_timesteps = 5;
  rio.closure_probability = 1.0;  // everything closed, always
  const auto coll = unwrap(makeRoadInstances(tmpl, rio));
  const auto pg = partitionGraph(tmpl, 2);
  DirectInstanceProvider provider(pg, coll);
  TdspOptions options;
  options.source = 0;
  options.latency_attr = tmpl->edgeSchema().requireIndex("latency");
  options.exists_attr = tmpl->edgeSchema().requireIndex("exists");
  const auto run = runTdsp(pg, provider, options);
  for (VertexIndex v = 0; v < tmpl->numVertices(); ++v) {
    if (v == 0) {
      EXPECT_EQ(run.finalized_at[v], 0);
    } else {
      EXPECT_EQ(run.finalized_at[v], -1) << v;
    }
  }
}

TEST(TdspClosures, ClosuresOnlyDelayNeverSpeedUp) {
  RoadNetworkOptions topo;
  topo.width = 6;
  topo.height = 6;
  topo.seed = 9;
  auto tmpl_open = testing::share(testing::unwrap(
      makeRoadNetwork(topo, AttributeSchema{}, roadEdgeSchemaWithClosures())));
  RoadInstanceOptions rio;
  rio.num_timesteps = 10;
  rio.seed = 10;
  rio.closure_probability = 0.0;
  const auto coll_open = unwrap(makeRoadInstances(tmpl_open, rio));
  rio.closure_probability = 0.25;
  const auto coll_closed = unwrap(makeRoadInstances(tmpl_open, rio));

  const std::size_t latency = tmpl_open->edgeSchema().requireIndex("latency");
  const std::size_t exists = tmpl_open->edgeSchema().requireIndex("exists");
  // Same seed generates identical latencies for both collections? No — the
  // closure draws interleave, so compare reference-vs-reference on the SAME
  // collection with and without honoring the exists attribute instead.
  const auto honored = reference::timeDependentShortestPath(
      *tmpl_open, coll_closed, latency, 0, exists);
  const auto ignored = reference::timeDependentShortestPath(
      *tmpl_open, coll_closed, latency, 0);
  for (VertexIndex v = 0; v < tmpl_open->numVertices(); ++v) {
    if (honored.finalized_at[v] >= 0 && ignored.finalized_at[v] >= 0) {
      EXPECT_GE(honored.tdsp[v], ignored.tdsp[v]) << v;
    }
  }
  (void)coll_open;
}

}  // namespace
}  // namespace tsg
