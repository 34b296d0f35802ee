#include "algorithms/wcc.h"

#include <gtest/gtest.h>

#include <tuple>

#include "test_util.h"

namespace tsg {
namespace {

using testing::partitionGraph;
using testing::share;
using testing::smallRoad;
using testing::smallSocial;
using testing::unwrap;

struct WccFixture {
  explicit WccFixture(GraphTemplatePtr t, std::uint32_t k)
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

// Multi-component graph: three separate paths plus isolated vertices.
GraphTemplatePtr multiComponent() {
  GraphTemplateBuilder builder(/*directed=*/false);
  for (int i = 0; i < 20; ++i) {
    builder.addVertex(i);
  }
  EdgeId e = 0;
  for (int i = 0; i < 5; ++i) {  // component {0..5}
    builder.addUndirectedEdge(e++, i, i + 1);
  }
  for (int i = 7; i < 12; ++i) {  // component {7..12}
    builder.addUndirectedEdge(e++, i, i + 1);
  }
  builder.addUndirectedEdge(e++, 14, 15);  // component {14,15}
  // 6, 13, 16..19 isolated
  return share(unwrap(builder.build()));
}

class WccProperty
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint32_t>> {
};

TEST_P(WccProperty, MatchesUnionFind) {
  const auto [family, k] = GetParam();
  GraphTemplatePtr tmpl;
  if (family == "road") {
    tmpl = smallRoad(8, 8);
  } else if (family == "social") {
    tmpl = smallSocial(150);
  } else {
    tmpl = multiComponent();
  }
  WccFixture fx(tmpl, k);
  const auto run = runSubgraphWcc(fx.pg, *fx.provider);
  const auto expected = reference::weaklyConnectedComponents(*fx.tmpl);
  EXPECT_EQ(run.component, expected)
      << "family=" << family << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WccProperty,
    ::testing::Combine(::testing::Values("road", "social", "multi"),
                       ::testing::Values(1u, 2u, 4u, 7u)),
    [](const auto& param_info) {
      return std::get<0>(param_info.param) + "_k" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(Wcc, CountsComponents) {
  WccFixture fx(multiComponent(), 3);
  const auto run = runSubgraphWcc(fx.pg, *fx.provider);
  // {0..5}, {7..12}, {14,15} + 6 isolated vertices (6,13,16,17,18,19).
  EXPECT_EQ(run.num_components, 3u + 6u);
}

TEST(Wcc, ConnectedGraphIsOneComponent) {
  WccFixture fx(smallRoad(6, 6), 4);
  const auto run = runSubgraphWcc(fx.pg, *fx.provider);
  EXPECT_EQ(run.num_components, 1u);
  for (const auto c : run.component) {
    EXPECT_EQ(c, 0u);  // min template index of the single component
  }
}

TEST(Wcc, DirectedEdgesStillGiveWeakComponents) {
  // A directed chain 0 -> 1 -> 2 split across partitions: weak connectivity
  // must still merge all three labels (requires symmetric meta-adjacency).
  GraphTemplateBuilder builder(/*directed=*/true);
  for (int i = 0; i < 3; ++i) {
    builder.addVertex(i);
  }
  builder.addEdge(0, 0, 1);
  builder.addEdge(1, 1, 2);
  auto tmpl = share(unwrap(builder.build()));
  // Force each vertex into its own partition (worst case).
  const PartitionAssignment assignment{0, 1, 2};
  auto pg = unwrap(PartitionedGraph::build(tmpl, assignment, 3));
  TimeSeriesCollection coll(tmpl, 0, 1);
  coll.appendInstance();
  DirectInstanceProvider provider(pg, coll);
  const auto run = runSubgraphWcc(pg, provider);
  EXPECT_EQ(run.num_components, 1u);
  EXPECT_EQ(run.component, (std::vector<VertexIndex>{0, 0, 0}));
}

TEST(Wcc, FewSuperstepsOnLargeDiameterGraph) {
  // The subgraph-centric payoff: label propagation over the meta-graph,
  // not the vertex graph, so supersteps ≪ diameter.
  WccFixture fx(smallRoad(16, 16), 4);
  const auto run = runSubgraphWcc(fx.pg, *fx.provider);
  EXPECT_LT(run.exec.stats.totalSupersteps(),
            fx.tmpl->estimateDiameter() / 4);
}

TEST(NeighborSubgraphs, SymmetricSortedUnique) {
  auto tmpl = smallSocial(200);
  const auto pg = partitionGraph(tmpl, 4);
  for (PartitionId p = 0; p < pg.numPartitions(); ++p) {
    for (const auto& sg : pg.partition(p).subgraphs) {
      // Sorted and unique.
      for (std::size_t i = 1; i < sg.neighbor_subgraphs.size(); ++i) {
        EXPECT_LT(sg.neighbor_subgraphs[i - 1], sg.neighbor_subgraphs[i]);
      }
      // Symmetric: if b is a's neighbor, a is b's neighbor.
      for (const SubgraphId other : sg.neighbor_subgraphs) {
        const auto& peers = pg.subgraph(other).neighbor_subgraphs;
        EXPECT_TRUE(std::binary_search(peers.begin(), peers.end(), sg.id))
            << sg.id << " <-> " << other;
      }
    }
  }
}

}  // namespace
}  // namespace tsg
