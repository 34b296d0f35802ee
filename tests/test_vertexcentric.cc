#include "vertexcentric/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "algorithms/reference.h"
#include "test_util.h"
#include "vertexcentric/programs.h"

namespace tsg {
namespace {

using testing::partitionGraph;
using testing::smallRoad;
using testing::smallSocial;
using vertexcentric::BfsVertexProgram;
using vertexcentric::Combiner;
using vertexcentric::SsspVertexProgram;
using vertexcentric::VcConfig;
using vertexcentric::VertexCentricEngine;

TEST(VertexCentric, UnweightedSsspMatchesBfsReference) {
  auto tmpl = smallRoad(8, 8);
  const auto pg = partitionGraph(tmpl, 3);
  VertexCentricEngine engine(pg);
  SsspVertexProgram program(0);
  const auto result =
      engine.run(program, {}, [](VertexIndex) { return vertexcentric::kInf; });

  const auto expected = reference::bfsLevels(*tmpl, 0);
  for (VertexIndex v = 0; v < tmpl->numVertices(); ++v) {
    if (expected[v] < 0) {
      EXPECT_TRUE(std::isinf(result.values[v]));
    } else {
      EXPECT_DOUBLE_EQ(result.values[v], expected[v]) << v;
    }
  }
}

TEST(VertexCentric, WeightedSsspMatchesDijkstra) {
  auto tmpl = smallSocial(120);
  const auto pg = partitionGraph(tmpl, 2);
  std::vector<double> weights(tmpl->numEdges());
  Rng rng(5);
  for (auto& w : weights) {
    w = rng.uniformDouble(0.5, 3.0);
  }
  VcConfig config;
  config.edge_weights = weights;
  VertexCentricEngine engine(pg);
  SsspVertexProgram program(7);
  const auto result =
      engine.run(program, config, [](VertexIndex) { return 0.0; });

  const auto expected = reference::dijkstra(*tmpl, weights, 7);
  for (VertexIndex v = 0; v < tmpl->numVertices(); ++v) {
    if (std::isinf(expected[v])) {
      EXPECT_TRUE(std::isinf(result.values[v]));
    } else {
      EXPECT_NEAR(result.values[v], expected[v], 1e-9) << v;
    }
  }
}

// The combiner runs at the receiver, so it changes how many values each
// vertex reads, never the traffic on the wire: only the answer is compared.
TEST(VertexCentric, MinCombinerLeavesValuesUnchanged) {
  auto tmpl = smallSocial(200);
  const auto pg = partitionGraph(tmpl, 3);
  VertexCentricEngine engine(pg);

  SsspVertexProgram plain_program(0);
  const auto plain = engine.run(plain_program, {}, [](VertexIndex) {
    return vertexcentric::kInf;
  });

  VcConfig combined_cfg;
  combined_cfg.combiner = Combiner::kMin;
  SsspVertexProgram combined_program(0);
  const auto combined = engine.run(combined_program, combined_cfg,
                                   [](VertexIndex) {
                                     return vertexcentric::kInf;
                                   });
  EXPECT_EQ(plain.values, combined.values);
}

TEST(VertexCentric, SuperstepCountTracksDiameterNotPartitions) {
  // The core Fig. 5b argument: vertex-centric BFS needs ~eccentricity
  // supersteps. On a lattice that is large; the subgraph-centric SSSP (see
  // test_sssp) needs only a handful.
  auto tmpl = smallRoad(12, 12);
  const auto pg = partitionGraph(tmpl, 3);
  VertexCentricEngine engine(pg);
  BfsVertexProgram program(0);
  const auto result =
      engine.run(program, {}, [](VertexIndex) { return vertexcentric::kInf; });
  const auto levels = reference::bfsLevels(*tmpl, 0);
  const auto ecc = *std::max_element(levels.begin(), levels.end());
  EXPECT_GE(result.supersteps, ecc);
}

// Pins the Giraph-baseline cost model exactly: vertex-centric BFS runs one
// superstep per hop, and superstep s delivers one message per out-edge of
// the level-s frontier -- no batching, no local shortcut.
void expectBfsCostMatchesFrontierOracle(const GraphTemplatePtr& tmpl,
                                        std::uint32_t partitions) {
  const auto pg = partitionGraph(tmpl, partitions);
  VertexCentricEngine engine(pg);
  BfsVertexProgram program(0);
  const auto result =
      engine.run(program, {}, [](VertexIndex) { return vertexcentric::kInf; });

  const auto levels = reference::bfsLevels(*tmpl, 0);
  const std::int32_t ecc = *std::max_element(levels.begin(), levels.end());
  std::vector<std::uint64_t> frontier_out(static_cast<std::size_t>(ecc) + 1);
  for (VertexIndex v = 0; v < tmpl->numVertices(); ++v) {
    if (levels[v] >= 0) {
      frontier_out[static_cast<std::size_t>(levels[v])] += tmpl->outDegree(v);
    }
  }
  // The last frontier's messages need one more superstep to be received
  // (and ignored) before every vertex is halted with nothing in flight.
  EXPECT_EQ(result.supersteps, ecc + (frontier_out.back() > 0 ? 2 : 1));

  std::vector<std::uint32_t> seen(static_cast<std::size_t>(result.supersteps));
  for (const auto& rec : result.stats.supersteps()) {
    if (rec.superstep < 0 || rec.superstep >= result.supersteps) {
      continue;
    }
    const auto s = static_cast<std::size_t>(rec.superstep);
    ++seen[s];
    const std::uint64_t expected =
        s < frontier_out.size() ? frontier_out[s] : 0;
    EXPECT_EQ(rec.delivered_messages, expected) << "superstep " << s;
  }
  for (std::size_t s = 0; s < seen.size(); ++s) {
    EXPECT_EQ(seen[s], 1u) << "superstep " << s;
  }
}

TEST(VertexCentric, BfsCostMatchesFrontierOracleOnRoad) {
  expectBfsCostMatchesFrontierOracle(smallRoad(10, 10), 3);
}

TEST(VertexCentric, BfsCostMatchesFrontierOracleOnSocial) {
  expectBfsCostMatchesFrontierOracle(smallSocial(150), 2);
}

TEST(VertexCentric, BfsLevelsMatchReference) {
  auto tmpl = smallSocial(150);
  const auto pg = partitionGraph(tmpl, 2);
  VertexCentricEngine engine(pg);
  BfsVertexProgram program(3);
  const auto result =
      engine.run(program, {}, [](VertexIndex) { return vertexcentric::kInf; });
  const auto expected = reference::bfsLevels(*tmpl, 3);
  for (VertexIndex v = 0; v < tmpl->numVertices(); ++v) {
    if (expected[v] < 0) {
      EXPECT_TRUE(std::isinf(result.values[v]));
    } else {
      EXPECT_DOUBLE_EQ(result.values[v], expected[v]);
    }
  }
}

TEST(VertexCentric, StatsRecordTraffic) {
  auto tmpl = smallRoad(6, 6);
  const auto pg = partitionGraph(tmpl, 2);
  VertexCentricEngine engine(pg);
  SsspVertexProgram program(0);
  const auto result =
      engine.run(program, {}, [](VertexIndex) { return vertexcentric::kInf; });
  EXPECT_GT(result.stats.totalMessages(), 0u);
  EXPECT_GT(result.stats.totalSupersteps(), 1u);
  EXPECT_GT(result.stats.wallClockNs(), 0);
}

}  // namespace
}  // namespace tsg
