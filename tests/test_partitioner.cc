#include "partition/partitioner.h"

#include <gtest/gtest.h>

#include <tuple>

#include "test_util.h"

namespace tsg {
namespace {

using testing::smallRoad;
using testing::smallSocial;

// Property sweep: every partitioner must produce a covering, bounded,
// deterministic assignment on both graph families and several k.
class PartitionerProperty
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::uint32_t, std::string>> {
 protected:
  static std::unique_ptr<Partitioner> make(const std::string& name) {
    if (name == "hash") {
      return std::make_unique<HashPartitioner>();
    }
    if (name == "bfs") {
      return std::make_unique<BfsPartitioner>(17);
    }
    return std::make_unique<LdgPartitioner>(17);
  }
  static GraphTemplatePtr graph(const std::string& family) {
    return family == "road" ? smallRoad(12, 12) : smallSocial(144);
  }
};

TEST_P(PartitionerProperty, CoversEveryVertexWithValidPartition) {
  const auto [family, k, algo] = GetParam();
  const auto tmpl = graph(family);
  const auto assignment = make(algo)->assign(*tmpl, k);
  ASSERT_EQ(assignment.size(), tmpl->numVertices());
  for (const auto p : assignment) {
    EXPECT_LT(p, k);
  }
}

TEST_P(PartitionerProperty, DeterministicAcrossRuns) {
  const auto [family, k, algo] = GetParam();
  const auto tmpl = graph(family);
  EXPECT_EQ(make(algo)->assign(*tmpl, k), make(algo)->assign(*tmpl, k));
}

TEST_P(PartitionerProperty, ReasonablyBalanced) {
  const auto [family, k, algo] = GetParam();
  const auto tmpl = graph(family);
  const auto assignment = make(algo)->assign(*tmpl, k);
  const auto metrics = evaluatePartition(*tmpl, assignment, k);
  // Hash balances statistically; bfs/ldg have an explicit 1.03 cap but the
  // leftover-attachment phase can overflow slightly. Allow generous slack.
  EXPECT_LT(metrics.balance, 1.6) << algo << " on " << family;
  for (const auto size : metrics.part_sizes) {
    EXPECT_GT(size, 0u) << algo << " left an empty partition on " << family;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionerProperty,
    ::testing::Combine(::testing::Values("road", "social"),
                       ::testing::Values(2u, 3u, 6u, 9u),
                       ::testing::Values("hash", "bfs", "ldg")),
    [](const auto& param_info) {
      return std::get<0>(param_info.param) + "_k" +
             std::to_string(std::get<1>(param_info.param)) + "_" +
             std::get<2>(param_info.param);
    });

TEST(BfsPartitioner, SinglePartitionIsTrivial) {
  const auto tmpl = smallRoad(5, 5);
  const auto assignment = BfsPartitioner().assign(*tmpl, 1);
  for (const auto p : assignment) {
    EXPECT_EQ(p, 0u);
  }
}

TEST(BfsPartitioner, RoadCutFractionIsTiny) {
  // Table II's left column: contiguous region growing on a lattice cuts a
  // vanishing fraction of edges.
  const auto tmpl = smallRoad(40, 40);
  const auto assignment = BfsPartitioner().assign(*tmpl, 3);
  const auto metrics = evaluatePartition(*tmpl, assignment, 3);
  EXPECT_LT(metrics.cut_fraction, 0.05);
}

TEST(BfsPartitioner, SmallWorldCutsFarMoreThanRoad) {
  // Table II's structural contrast at equal scale and k.
  const auto road = smallRoad(40, 40);
  const auto social = smallSocial(1600);
  const BfsPartitioner partitioner;
  const auto road_metrics =
      evaluatePartition(*road, partitioner.assign(*road, 6), 6);
  const auto social_metrics =
      evaluatePartition(*social, partitioner.assign(*social, 6), 6);
  EXPECT_GT(social_metrics.cut_fraction, 5.0 * road_metrics.cut_fraction);
}

TEST(BfsPartitioner, CutGrowsWithPartitionCount) {
  const auto tmpl = smallSocial(1600);
  const BfsPartitioner partitioner;
  const auto m3 = evaluatePartition(*tmpl, partitioner.assign(*tmpl, 3), 3);
  const auto m9 = evaluatePartition(*tmpl, partitioner.assign(*tmpl, 9), 9);
  EXPECT_GT(m9.cut_fraction, m3.cut_fraction);
}

TEST(HashPartitioner, WorstCaseCutOnRoad) {
  // Hash placement ignores locality: on a lattice nearly every edge is cut
  // once k > 1, which is why it is the reference worst case.
  const auto tmpl = smallRoad(30, 30);
  const auto hash_metrics =
      evaluatePartition(*tmpl, HashPartitioner().assign(*tmpl, 6), 6);
  const auto bfs_metrics =
      evaluatePartition(*tmpl, BfsPartitioner().assign(*tmpl, 6), 6);
  EXPECT_GT(hash_metrics.cut_fraction, 5.0 * bfs_metrics.cut_fraction);
}

TEST(EvaluatePartition, CountsCutEdgesExactly) {
  // 4-cycle split in half: exactly the two crossing edges (4 directed).
  GraphTemplateBuilder builder(/*directed=*/false);
  for (int i = 0; i < 4; ++i) {
    builder.addVertex(i);
  }
  builder.addUndirectedEdge(0, 0, 1);
  builder.addUndirectedEdge(1, 1, 2);
  builder.addUndirectedEdge(2, 2, 3);
  builder.addUndirectedEdge(3, 3, 0);
  const auto tmpl = testing::unwrap(builder.build());
  const PartitionAssignment assignment{0, 0, 1, 1};
  const auto metrics = evaluatePartition(tmpl, assignment, 2);
  EXPECT_EQ(metrics.num_edges, 8u);
  EXPECT_EQ(metrics.cut_edges, 4u);
  EXPECT_DOUBLE_EQ(metrics.cut_fraction, 0.5);
  EXPECT_DOUBLE_EQ(metrics.balance, 1.0);
}

TEST(LdgPartitioner, AssignsIsolatedVertices) {
  GraphTemplateBuilder builder;
  for (int i = 0; i < 10; ++i) {
    builder.addVertex(i);  // no edges at all
  }
  const auto tmpl = testing::unwrap(builder.build());
  const auto assignment = LdgPartitioner().assign(tmpl, 3);
  const auto metrics = evaluatePartition(tmpl, assignment, 3);
  for (const auto size : metrics.part_sizes) {
    EXPECT_GE(size, 3u);  // 10 vertices over 3 partitions: 4/3/3
  }
}

}  // namespace
}  // namespace tsg
