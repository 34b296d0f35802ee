#include "algorithms/meme.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "algorithms/reference.h"
#include "generators/topology.h"
#include "gofs/checkpoint.h"
#include "runtime/fault_injector.h"
#include "stream/ingestor.h"
#include "stream/replay.h"
#include "test_util.h"

namespace tsg {
namespace {

using testing::partitionGraph;
using testing::share;
using testing::smallSocial;
using testing::tweetCollection;
using testing::unwrap;

// Runs meme tracking over `coll`, either as batch input or as a live event
// stream replayed through the ingest pipeline (which turns on the
// incremental skip of clean subgraphs).
MemeRun runMeme(const PartitionedGraph& pg, const TimeSeriesCollection& coll,
                MemeOptions options, bool streamed) {
  if (!streamed) {
    DirectInstanceProvider provider(pg, coll);
    return runMemeTracking(pg, provider, options);
  }
  stream::StreamPipeline pipeline(pg, coll.numInstances(), coll.t0(),
                                  coll.delta(), /*queue_capacity=*/3);
  MemeRun run;
  const Status ingest = pipeline.run(
      stream::eventsFromCollection(coll),
      [&](stream::StreamingInstanceProvider& provider) {
        options.stream = &provider;
        run = runMemeTracking(pg, provider, options);
      });
  EXPECT_TRUE(ingest.isOk()) << ingest.toString();
  return run;
}

std::vector<std::string> sortedOutputs(const MemeRun& run) {
  auto lines = run.exec.outputs;
  std::sort(lines.begin(), lines.end());
  return lines;
}

// Hand-built scenario mirroring the paper's Fig. 4: meme starts at A,
// spreads A→D, then A→E and D→B, then B|D→C across four instances.
class FigureFour : public ::testing::Test {
 protected:
  void SetUp() override {
    GraphTemplateBuilder builder(/*directed=*/false);
    builder.vertexSchema().add("tweets", AttrType::kStringList);
    for (VertexId id = 0; id < 5; ++id) {  // A,B,C,D,E = 0..4
      builder.addVertex(id);
    }
    builder.addUndirectedEdge(0, kA, kD);
    builder.addUndirectedEdge(1, kA, kE);
    builder.addUndirectedEdge(2, kD, kB);
    builder.addUndirectedEdge(3, kB, kC);
    builder.addUndirectedEdge(4, kD, kC);
    tmpl_ = share(unwrap(builder.build()));

    collection_ = TimeSeriesCollection(tmpl_, 0, 5);
    addInstance({kA});              // g0: A tweets the meme
    addInstance({kA, kD});          // g1: spreads to D
    addInstance({kD, kE, kB});      // g2: E and B join
    addInstance({kB, kC});          // g3: C reached
  }

  void addInstance(const std::vector<VertexIndex>& carriers) {
    auto& inst = collection_.appendInstance();
    auto& tweets = inst.vertexCol(0).asStringList();
    for (const auto v : carriers) {
      tweets[v].push_back("#meme");
    }
  }

  static constexpr VertexIndex kA = 0, kB = 1, kC = 2, kD = 3, kE = 4;
  GraphTemplatePtr tmpl_;
  TimeSeriesCollection collection_;
};

TEST_F(FigureFour, SpreadMatchesThePaperTimeline) {
  for (const std::uint32_t k : {1u, 2u, 3u}) {
    const auto pg = partitionGraph(tmpl_, k);
    DirectInstanceProvider provider(pg, collection_);
    MemeOptions options;
    options.meme = "#meme";
    options.tweets_attr = 0;
    const auto run = runMemeTracking(pg, provider, options);
    EXPECT_EQ(run.colored_at[kA], 0) << "k=" << k;
    EXPECT_EQ(run.colored_at[kD], 1) << "k=" << k;
    EXPECT_EQ(run.colored_at[kE], 2) << "k=" << k;
    EXPECT_EQ(run.colored_at[kB], 2) << "k=" << k;
    EXPECT_EQ(run.colored_at[kC], 3) << "k=" << k;
  }
}

TEST_F(FigureFour, VerticesNeverCarryingMemeStayUncolored) {
  // E stops tweeting after g2; it stays colored (colored sets only grow),
  // but a vertex that never tweets is never colored. Add such a vertex by
  // restricting the meme to a different tag.
  const auto pg = partitionGraph(tmpl_, 2);
  DirectInstanceProvider provider(pg, collection_);
  MemeOptions options;
  options.meme = "#different";
  options.tweets_attr = 0;
  const auto run = runMemeTracking(pg, provider, options);
  for (VertexIndex v = 0; v < tmpl_->numVertices(); ++v) {
    EXPECT_EQ(run.colored_at[v], -1);
  }
}

// Property sweep: distributed meme tracking == sequential temporal BFS on
// SIR-generated tweet streams.
class MemeProperty
    : public ::testing::TestWithParam<
          std::tuple<int, std::uint32_t, int, double>> {};

TEST_P(MemeProperty, MatchesReference) {
  const auto [n, k, seed, hit] = GetParam();
  auto tmpl = smallSocial(n, seed);
  const auto pg = partitionGraph(tmpl, k, seed + 1);
  const auto coll = tweetCollection(tmpl, 15, hit, seed + 2);
  DirectInstanceProvider provider(pg, coll);

  SirTweetOptions gen_defaults;  // meme tag defaults align
  MemeOptions options;
  options.meme = gen_defaults.meme;
  options.tweets_attr = tmpl->vertexSchema().requireIndex("tweets");
  const auto run = runMemeTracking(pg, provider, options);
  const auto expected =
      reference::memeSpread(*tmpl, coll, options.tweets_attr, options.meme);

  ASSERT_EQ(run.colored_at.size(), expected.size());
  for (VertexIndex v = 0; v < tmpl->numVertices(); ++v) {
    ASSERT_EQ(run.colored_at[v], expected[v])
        << "vertex " << v << " n=" << n << " k=" << k << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MemeProperty,
    ::testing::Combine(::testing::Values(40, 120), ::testing::Values(1u, 3u),
                       ::testing::Values(3, 17), ::testing::Values(0.1, 0.5)),
    [](const auto& param_info) {
      return "n" + std::to_string(std::get<0>(param_info.param)) + "_k" +
             std::to_string(std::get<1>(param_info.param)) + "_s" +
             std::to_string(std::get<2>(param_info.param)) + "_h" +
             std::to_string(
                 static_cast<int>(std::get<3>(param_info.param) * 10));
    });

// The same sweep over streamed input, under both schedules: clean
// subgraphs skip, and their frontiers must still be right later.
TEST_P(MemeProperty, StreamedMatchesReference) {
  const auto [n, k, seed, hit] = GetParam();
  auto tmpl = smallSocial(n, seed);
  const auto pg = partitionGraph(tmpl, k, seed + 1);
  const auto coll = tweetCollection(tmpl, 15, hit, seed + 2);

  MemeOptions options;
  options.meme = SirTweetOptions{}.meme;
  options.tweets_attr = tmpl->vertexSchema().requireIndex("tweets");
  const auto expected =
      reference::memeSpread(*tmpl, coll, options.tweets_attr, options.meme);
  for (const Schedule schedule : {Schedule::kBsp, Schedule::kAsync}) {
    options.schedule = schedule;
    const auto run = runMeme(pg, coll, options, /*streamed=*/true);
    EXPECT_EQ(run.colored_at, expected)
        << (schedule == Schedule::kBsp ? "bsp" : "async") << " n=" << n
        << " k=" << k << " seed=" << seed;
  }
}

TEST(Meme, ColoredCounterMatchesTotalColored) {
  auto tmpl = smallSocial(100);
  const auto pg = partitionGraph(tmpl, 3);
  const auto coll = tweetCollection(tmpl, 12, 0.4);
  DirectInstanceProvider provider(pg, coll);
  MemeOptions options;
  options.tweets_attr = 0;
  const auto run = runMemeTracking(pg, provider, options);

  std::uint64_t colored = 0;
  for (const auto t : run.colored_at) {
    colored += t >= 0 ? 1 : 0;
  }
  EXPECT_EQ(run.exec.stats.counterTotal(kMemeColoredCounter), colored);
  EXPECT_GT(colored, 0u);
}

TEST(Meme, OutputsListNewlyColoredPerTimestep) {
  auto tmpl = smallSocial(60);
  const auto pg = partitionGraph(tmpl, 2);
  const auto coll = tweetCollection(tmpl, 8, 0.5);
  DirectInstanceProvider provider(pg, coll);
  MemeOptions options;
  options.tweets_attr = 0;
  options.emit_outputs = true;
  const auto run = runMemeTracking(pg, provider, options);
  std::uint64_t colored = 0;
  for (const auto t : run.colored_at) {
    colored += t >= 0 ? 1 : 0;
  }
  EXPECT_EQ(run.exec.outputs.size(), colored);
}

// Hand-built timeline for the per-partition frontier F (the uncolored
// vertices with a colored in-neighbour). Path C-A-B inside one subgraph and
// a bridge A-X to a second subgraph X-Y. Carriers per timestep:
//   t0 {C}        C colored; A joins F
//   t1 {B, X}     both carry with no colored neighbour: nothing colored
//   t2 {A}        A colored from F; B joins F, X is notified as a non-carrier
//   t3..t6 {}     clean timesteps (streamed runs skip them)
//   t7 {B}        B, in F since t2, carries again: colored
//   t8 {B, X}     X, notified at t2, carries: colored; B stays colored at 7
//   t9 {B, X, Y}  Y colored
class FrontierTimeline
    : public ::testing::TestWithParam<std::vector<PartitionId>> {
 protected:
  void SetUp() override {
    GraphTemplateBuilder builder(/*directed=*/false);
    builder.vertexSchema().add("tweets", AttrType::kStringList);
    for (VertexId id = 0; id < 5; ++id) {
      builder.addVertex(id);
    }
    builder.addUndirectedEdge(0, kC, kA);
    builder.addUndirectedEdge(1, kA, kB);
    builder.addUndirectedEdge(2, kA, kX);
    builder.addUndirectedEdge(3, kX, kY);
    tmpl_ = share(unwrap(builder.build()));
    const auto& assignment = GetParam();
    const auto k = *std::max_element(assignment.begin(), assignment.end()) + 1;
    pg_.emplace(unwrap(PartitionedGraph::build(tmpl_, assignment, k)));

    coll_ = TimeSeriesCollection(tmpl_, 0, 5);
    const std::vector<std::vector<VertexIndex>> carriers = {
        {kC}, {kB, kX}, {kA}, {}, {}, {}, {}, {kB}, {kB, kX}, {kB, kX, kY}};
    for (const auto& at : carriers) {
      auto& tweets = coll_.appendInstance().vertexCol(0).asStringList();
      for (const auto v : at) {
        tweets[v].push_back("#meme");
      }
    }
    options_.emit_outputs = true;
  }

  void expectTimeline(const MemeRun& run) const {
    const std::vector<Timestep> expected = {0, 2, 7, 8, 9};  // C A B X Y
    EXPECT_EQ(run.colored_at, expected);
    EXPECT_EQ(run.colored_at, reference::memeSpread(*tmpl_, coll_, 0, "#meme"));
  }

  static constexpr VertexIndex kC = 0, kA = 1, kB = 2, kX = 3, kY = 4;
  GraphTemplatePtr tmpl_;
  std::optional<PartitionedGraph> pg_;
  TimeSeriesCollection coll_;
  MemeOptions options_;
};

TEST_P(FrontierTimeline, MatchesReferenceBatchAndStreamedBothSchedules) {
  const auto batch = runMeme(*pg_, coll_, options_, /*streamed=*/false);
  expectTimeline(batch);
  for (const bool streamed : {false, true}) {
    for (const Schedule schedule : {Schedule::kBsp, Schedule::kAsync}) {
      SCOPED_TRACE(std::string(streamed ? "streamed " : "batch ") +
                   (schedule == Schedule::kBsp ? "bsp" : "async"));
      MemeOptions options = options_;
      options.schedule = schedule;
      const auto run = runMeme(*pg_, coll_, options, streamed);
      expectTimeline(run);
      EXPECT_EQ(sortedOutputs(run), sortedOutputs(batch));
      // Streamed, the clean timesteps t4..t6 skip every subgraph.
      EXPECT_EQ(testing::metricTotal(run.exec.stats,
                                     "engine.subgraphs_skipped_incremental") >
                    0,
                streamed);
    }
  }
}

TEST_P(FrontierTimeline, KillBetweenNotificationAndCarryRecovers) {
  // The kill lands at t5: after X was notified (t2) and B joined F, before
  // either carries (t7, t8). The checkpoint holds only colored_at, so the
  // restored partitions must rebuild F and the notifications.
  const auto baseline = runMeme(*pg_, coll_, options_, /*streamed=*/false);
  auto& injector = fault::FaultInjector::global();
  injector.disarm();
  const auto k = pg_->numPartitions();
  for (const PartitionId victim : {PartitionId{0}, PartitionId{k - 1}}) {
    for (const bool streamed : {false, true}) {
      for (const Schedule schedule : {Schedule::kBsp, Schedule::kAsync}) {
        SCOPED_TRACE("victim " + std::to_string(victim) +
                     (streamed ? " streamed " : " batch ") +
                     (schedule == Schedule::kBsp ? "bsp" : "async"));
        fault::FaultSpec kill;
        kill.site = fault::Site::kCompute;
        kill.action = fault::Action::kKill;
        kill.partition = victim;
        kill.timestep = 5;
        MemoryCheckpointStore store;
        MemeOptions options = options_;
        options.schedule = schedule;
        options.checkpoint_store = &store;
        injector.arm({kill}, 7);
        const auto run = runMeme(*pg_, coll_, options, streamed);
        injector.disarm();
        EXPECT_EQ(testing::metricTotal(run.exec.stats, "engine.recoveries"),
                  1);
        expectTimeline(run);
        EXPECT_EQ(sortedOutputs(run), sortedOutputs(baseline));
      }
    }
  }
}

// Partition of C, A, B, X, Y: the bridge A-X crosses partitions, or a
// subgraph boundary inside one partition, or every edge is cut.
INSTANTIATE_TEST_SUITE_P(Assignments, FrontierTimeline,
                         ::testing::Values(std::vector<PartitionId>{0, 0, 0, 1,
                                                                    1},
                                           std::vector<PartitionId>{0, 1, 0, 1,
                                                                    0},
                                           std::vector<PartitionId>{0, 1, 2, 0,
                                                                    1}));

}  // namespace
}  // namespace tsg
