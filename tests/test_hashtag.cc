#include "algorithms/hashtag.h"

#include <gtest/gtest.h>

#include <tuple>

#include "algorithms/reference.h"
#include "test_util.h"

namespace tsg {
namespace {

using testing::partitionGraph;
using testing::smallSocial;
using testing::tweetCollection;

// Parameterized over (graph size, partitions): the merged counts must equal
// a direct sequential count.
class HashtagProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint32_t>> {};

TEST_P(HashtagProperty, CountsMatchDirectTally) {
  const auto [n, k] = GetParam();
  auto tmpl = smallSocial(n);
  const auto pg = partitionGraph(tmpl, k);
  const auto coll = tweetCollection(tmpl, 10, 0.3);
  DirectInstanceProvider provider(pg, coll);

  HashtagOptions options;
  options.tag = "#meme";
  options.tweets_attr = 0;
  const auto run = runHashtagAggregation(pg, provider, options);

  const auto expected = reference::hashtagCounts(coll, 0, "#meme");
  ASSERT_EQ(run.counts.size(), expected.size());
  EXPECT_EQ(run.counts, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HashtagProperty,
    ::testing::Combine(::testing::Values(50, 150),
                       ::testing::Values(1u, 2u, 4u)),
    [](const auto& param_info) {
      return "n" + std::to_string(std::get<0>(param_info.param)) + "_k" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(Hashtag, RateOfChangeIsFirstDifference) {
  auto tmpl = smallSocial(80);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = tweetCollection(tmpl, 8, 0.4);
  DirectInstanceProvider provider(pg, coll);
  HashtagOptions options;
  options.tweets_attr = 0;
  const auto run = runHashtagAggregation(pg, provider, options);
  ASSERT_EQ(run.rate_of_change.size(), run.counts.size());
  ASSERT_FALSE(run.counts.empty());
  EXPECT_EQ(run.rate_of_change[0], 0);
  for (std::size_t i = 1; i < run.counts.size(); ++i) {
    EXPECT_EQ(run.rate_of_change[i],
              static_cast<std::int64_t>(run.counts[i]) -
                  static_cast<std::int64_t>(run.counts[i - 1]));
  }
}

TEST(Hashtag, MasterEmitsOneOutputLinePerTimestep) {
  auto tmpl = smallSocial(60);
  const auto pg = partitionGraph(tmpl, 3);
  const auto coll = tweetCollection(tmpl, 6, 0.3);
  DirectInstanceProvider provider(pg, coll);
  HashtagOptions options;
  options.tweets_attr = 0;
  const auto run = runHashtagAggregation(pg, provider, options);
  EXPECT_EQ(run.exec.outputs.size(), 6u);
  for (const auto& line : run.exec.outputs) {
    EXPECT_EQ(line.rfind("hashtag,", 0), 0u);
  }
}

TEST(Hashtag, UnknownTagYieldsAllZeros) {
  auto tmpl = smallSocial(40);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = tweetCollection(tmpl, 5, 0.3);
  DirectInstanceProvider provider(pg, coll);
  HashtagOptions options;
  options.tag = "#nosuchtag_xyz";
  options.tweets_attr = 0;
  const auto run = runHashtagAggregation(pg, provider, options);
  for (const auto c : run.counts) {
    EXPECT_EQ(c, 0u);
  }
}

TEST(Hashtag, SubRangeOfTimesteps) {
  auto tmpl = smallSocial(60);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = tweetCollection(tmpl, 10, 0.4);
  DirectInstanceProvider provider(pg, coll);
  HashtagOptions options;
  options.tweets_attr = 0;
  options.first_timestep = 3;
  options.num_timesteps = 4;
  const auto run = runHashtagAggregation(pg, provider, options);
  const auto expected = reference::hashtagCounts(coll, 0, "#meme");
  ASSERT_EQ(run.counts.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(run.counts[i], expected[3 + i]) << i;
  }
}

}  // namespace
}  // namespace tsg
