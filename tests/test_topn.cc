#include "algorithms/topn.h"

#include <gtest/gtest.h>

#include "algorithms/reference.h"
#include "test_util.h"

namespace tsg {
namespace {

using testing::partitionGraph;
using testing::smallSocial;
using testing::tweetCollection;

TEST(TopN, MatchesReferenceAcrossModes) {
  auto tmpl = smallSocial(120);
  const auto pg = partitionGraph(tmpl, 3);
  const auto coll = tweetCollection(tmpl, 8, 0.3);
  DirectInstanceProvider provider(pg, coll);

  const auto expected = reference::topActiveVertices(*tmpl, coll, 0, 5);
  for (const Schedule schedule : {Schedule::kBsp, Schedule::kAsync}) {
    TopNOptions options;
    options.tweets_attr = 0;
    options.n = 5;
    options.schedule = schedule;
    const auto run = runTopActiveVertices(pg, provider, options);
    ASSERT_EQ(run.top.size(), expected.size());
    for (std::size_t t = 0; t < expected.size(); ++t) {
      EXPECT_EQ(run.top[t], expected[t])
          << "t=" << t << (schedule == Schedule::kBsp ? " bsp" : " async");
    }
  }
}

TEST(TopN, NLargerThanGraphReturnsAllVertices) {
  auto tmpl = smallSocial(20);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = tweetCollection(tmpl, 3, 0.3);
  DirectInstanceProvider provider(pg, coll);
  TopNOptions options;
  options.tweets_attr = 0;
  options.n = 100;
  const auto run = runTopActiveVertices(pg, provider, options);
  for (const auto& row : run.top) {
    EXPECT_EQ(row.size(), tmpl->numVertices());
  }
}

TEST(TopN, SubRange) {
  auto tmpl = smallSocial(50);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = tweetCollection(tmpl, 10, 0.3);
  DirectInstanceProvider provider(pg, coll);
  TopNOptions options;
  options.tweets_attr = 0;
  options.n = 3;
  options.first_timestep = 4;
  options.num_timesteps = 2;
  const auto run = runTopActiveVertices(pg, provider, options);
  const auto expected = reference::topActiveVertices(*tmpl, coll, 0, 3);
  ASSERT_EQ(run.top.size(), 2u);
  EXPECT_EQ(run.top[0], expected[4]);
  EXPECT_EQ(run.top[1], expected[5]);
}

TEST(TopN, DegreeDrivenWhenNoTweets) {
  // With an all-empty tweet column the ranking is purely by out-degree.
  auto tmpl = smallSocial(40);
  const auto pg = partitionGraph(tmpl, 2);
  TimeSeriesCollection coll(tmpl, 0, 5);
  coll.appendInstance();
  DirectInstanceProvider provider(pg, coll);
  TopNOptions options;
  options.tweets_attr = 0;
  options.n = 1;
  const auto run = runTopActiveVertices(pg, provider, options);
  ASSERT_EQ(run.top.size(), 1u);
  ASSERT_EQ(run.top[0].size(), 1u);
  // Winner must have the maximum out-degree.
  std::size_t max_degree = 0;
  for (VertexIndex v = 0; v < tmpl->numVertices(); ++v) {
    max_degree = std::max(max_degree, tmpl->outDegree(v));
  }
  EXPECT_EQ(tmpl->outDegree(run.top[0][0]), max_degree);
}

}  // namespace
}  // namespace tsg
