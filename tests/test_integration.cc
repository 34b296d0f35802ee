// End-to-end tests: generate → partition → write GoFS → lazily load → run
// every algorithm → compare against the sequential references. This is the
// full pipeline a user of the library executes.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "algorithms/hashtag.h"
#include "algorithms/meme.h"
#include "algorithms/reference.h"
#include "algorithms/sssp.h"
#include "algorithms/tdsp.h"
#include "algorithms/topn.h"
#include "gofs/dataset.h"
#include "test_util.h"

namespace tsg {
namespace {

using testing::partitionGraph;
using testing::roadCollection;
using testing::smallRoad;
using testing::smallSocial;
using testing::tweetCollection;
using testing::unwrap;

class IntegrationTest : public ::testing::Test {
 protected:
  testing::TempDir tmp_{"tsg_integration"};
  std::string dir_ = tmp_.path();
};

TEST_F(IntegrationTest, TdspOverGofsMatchesReference) {
  auto tmpl = smallRoad(9, 9, 6);
  const auto pg = partitionGraph(tmpl, 3);
  const auto coll = roadCollection(tmpl, 25, 7);

  GofsOptions gofs;
  gofs.temporal_packing = 10;
  ASSERT_TRUE(writeGofsDataset(dir_, "carn-mini", pg, coll, gofs).isOk());
  auto ds = unwrap(GofsDataset::open(dir_));
  auto provider = ds.makeProvider();

  TdspOptions options;
  options.source = 0;
  options.latency_attr =
      ds.partitionedGraph().graphTemplate().edgeSchema().requireIndex(
          "latency");
  const auto run = runTdsp(ds.partitionedGraph(), *provider, options);
  const auto expected = reference::timeDependentShortestPath(
      *tmpl, coll, options.latency_attr, 0);

  for (VertexIndex v = 0; v < tmpl->numVertices(); ++v) {
    ASSERT_EQ(run.finalized_at[v], expected.finalized_at[v]) << v;
    if (expected.finalized_at[v] >= 0) {
      ASSERT_NEAR(run.tdsp[v], expected.tdsp[v], 1e-9) << v;
    }
  }
  // Lazy loading actually metered some I/O.
  std::int64_t load_ns = 0;
  for (const auto& rec : run.exec.stats.supersteps()) {
    for (const auto& part : rec.parts) {
      load_ns += part.load_ns;
    }
  }
  EXPECT_GT(load_ns, 0);
}

TEST_F(IntegrationTest, MemeOverGofsMatchesReference) {
  auto tmpl = smallSocial(150, 4);
  const auto pg = partitionGraph(tmpl, 3);
  const auto coll = tweetCollection(tmpl, 18, 0.35, 9);
  ASSERT_TRUE(writeGofsDataset(dir_, "wiki-mini", pg, coll, {}).isOk());
  auto ds = unwrap(GofsDataset::open(dir_));
  auto provider = ds.makeProvider();

  MemeOptions options;
  options.tweets_attr = 0;
  const auto run =
      runMemeTracking(ds.partitionedGraph(), *provider, options);
  const auto expected = reference::memeSpread(*tmpl, coll, 0, options.meme);
  for (VertexIndex v = 0; v < tmpl->numVertices(); ++v) {
    ASSERT_EQ(run.colored_at[v], expected[v]) << v;
  }
}

TEST_F(IntegrationTest, HashtagOverGofsMatchesReference) {
  auto tmpl = smallSocial(100, 5);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = tweetCollection(tmpl, 12, 0.3, 11);
  ASSERT_TRUE(writeGofsDataset(dir_, "tags", pg, coll, {}).isOk());
  auto ds = unwrap(GofsDataset::open(dir_));
  auto provider = ds.makeProvider();

  HashtagOptions options;
  options.tweets_attr = 0;
  const auto run =
      runHashtagAggregation(ds.partitionedGraph(), *provider, options);
  EXPECT_EQ(run.counts, reference::hashtagCounts(coll, 0, options.tag));
}

TEST_F(IntegrationTest, AllThreeAlgorithmsShareOneDataset) {
  // The paper's workflow: one stored dataset, several analytics over it.
  auto tmpl = smallSocial(120, 8);
  const auto pg = partitionGraph(tmpl, 3);
  const auto coll = tweetCollection(tmpl, 10, 0.4, 13);
  ASSERT_TRUE(writeGofsDataset(dir_, "shared", pg, coll, {}).isOk());
  auto ds = unwrap(GofsDataset::open(dir_));

  auto p1 = ds.makeProvider();
  MemeOptions meme;
  meme.tweets_attr = 0;
  const auto meme_run = runMemeTracking(ds.partitionedGraph(), *p1, meme);

  auto p2 = ds.makeProvider();
  HashtagOptions tag;
  tag.tweets_attr = 0;
  const auto tag_run =
      runHashtagAggregation(ds.partitionedGraph(), *p2, tag);

  auto p3 = ds.makeProvider();
  TopNOptions topn;
  topn.tweets_attr = 0;
  topn.n = 4;
  const auto topn_run =
      runTopActiveVertices(ds.partitionedGraph(), *p3, topn);

  EXPECT_EQ(tag_run.counts,
            reference::hashtagCounts(coll, 0, tag.tag));
  const auto expected_colored =
      reference::memeSpread(*tmpl, coll, 0, meme.meme);
  EXPECT_EQ(meme_run.colored_at, expected_colored);
  const auto expected_top = reference::topActiveVertices(*tmpl, coll, 0, 4);
  ASSERT_EQ(topn_run.top.size(), expected_top.size());
  for (std::size_t t = 0; t < expected_top.size(); ++t) {
    EXPECT_EQ(topn_run.top[t], expected_top[t]);
  }
}

TEST_F(IntegrationTest, ResultsIdenticalAcrossPartitionCounts) {
  // Distribution must be semantically transparent: 1, 2 and 5 partitions
  // give bit-identical algorithm results.
  auto tmpl = smallRoad(8, 8, 12);
  const auto coll = roadCollection(tmpl, 15, 14);

  std::vector<std::vector<Timestep>> finalized;
  for (const std::uint32_t k : {1u, 2u, 5u}) {
    const auto pg = partitionGraph(tmpl, k);
    DirectInstanceProvider provider(pg, coll);
    TdspOptions options;
    options.source = 3;
    options.latency_attr = 0;
    finalized.push_back(runTdsp(pg, provider, options).finalized_at);
  }
  EXPECT_EQ(finalized[0], finalized[1]);
  EXPECT_EQ(finalized[0], finalized[2]);
}

TEST_F(IntegrationTest, DirectAndGofsProvidersGiveIdenticalResults) {
  auto tmpl = smallRoad(7, 7, 20);
  const auto pg = partitionGraph(tmpl, 3);
  const auto coll = roadCollection(tmpl, 12, 21);

  DirectInstanceProvider direct(pg, coll);
  TdspOptions options;
  options.source = 1;
  options.latency_attr = 0;
  const auto run_direct = runTdsp(pg, direct, options);

  GofsOptions gofs;
  gofs.temporal_packing = 4;
  ASSERT_TRUE(writeGofsDataset(dir_, "both", pg, coll, gofs).isOk());
  auto ds = unwrap(GofsDataset::open(dir_));
  auto provider = ds.makeProvider();
  const auto run_gofs = runTdsp(ds.partitionedGraph(), *provider, options);

  EXPECT_EQ(run_direct.finalized_at, run_gofs.finalized_at);
  EXPECT_EQ(run_direct.tdsp, run_gofs.tdsp);
}

}  // namespace
}  // namespace tsg
