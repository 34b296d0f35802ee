// Incremental TI-BSP over the streaming front door: for every shipped
// algorithm and both superstep schedules, running against sealed timesteps
// as they stream in must produce byte-identical semantic outputs to the
// cold batch run. Also covers the incremental-skip accounting on a sparse
// stream and worker-kill recovery while the stream is live.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/digest.h"
#include "common/metrics.h"
#include "core/engine.h"
#include "gofs/checkpoint.h"
#include "runtime/fault_injector.h"
#include "stream/ingestor.h"
#include "stream/replay.h"
#include "test_util.h"

namespace tsg {
namespace {

using testing::AlgoEnv;
using testing::algorithm;
using testing::envFor;

// Runs the algorithm against a live ingest thread: events replayed through
// a bounded seal queue, engine awaiting each timestep as it seals.
std::string streamedDigest(const AlgorithmEntry& entry, const AlgoEnv& env,
                           Schedule schedule,
                           CheckpointStore* store = nullptr) {
  stream::StreamPipeline pipeline(env.pg, env.coll.numInstances(),
                                  env.coll.t0(), env.coll.delta(),
                                  /*queue_capacity=*/3);
  AlgorithmRequest request;
  request.schedule = schedule;
  request.checkpoint_store = store;
  std::string digest;
  const Status ingest = pipeline.run(
      stream::eventsFromCollection(env.coll),
      [&](stream::StreamingInstanceProvider& provider) {
        request.stream = &provider;
        digest =
            testing::unwrap(runAlgorithm(entry, env.pg, provider, request))
                .digest;
      });
  EXPECT_TRUE(ingest.isOk());
  return digest;
}

// Streamed input reproduces the cold batch BSP digest under both
// schedules. The plain vertex engine has no timestep loop and ignores the
// stream, so its contract is simply "identical to itself".
void expectStreamedMatchesBatch(const AlgorithmEntry& entry) {
  const AlgoEnv env = envFor(entry);
  const std::string reference = env.run(entry).digest;
  for (const Schedule schedule : {Schedule::kBsp, Schedule::kAsync}) {
    SCOPED_TRACE(schedule == Schedule::kBsp ? "bsp" : "async");
    EXPECT_EQ(streamedDigest(entry, env, schedule), reference);
  }
}

const bool kIncrementalDigestMatrix = testing::registerPerAlgorithm(
    "IncrementalDigestMatrix", "StreamedMatchesBatch",
    &expectStreamedMatchesBatch);

TEST(IncrementalSkip, SparseMemeStreamSkipsCleanSubgraphsBothSchedules) {
  // hit probability 0: the meme never spreads past the seeds, so after the
  // first timestep most subgraphs receive no messages and stay clean —
  // exactly the subgraphs the incremental skip must elide.
  const AlgorithmEntry& meme = algorithm("meme");
  auto tmpl = testing::smallSocial(64);
  auto pg = testing::partitionGraph(tmpl, 3);
  auto coll = testing::tweetCollection(tmpl, 6, /*hit_probability=*/0.0);
  const AlgoEnv env{std::move(tmpl), std::move(pg), std::move(coll)};

  const std::string reference = env.run(meme).digest;
  auto& skipped =
      MetricsRegistry::global().counter("engine.subgraphs_skipped_incremental");
  for (const Schedule schedule : {Schedule::kBsp, Schedule::kAsync}) {
    SCOPED_TRACE(schedule == Schedule::kBsp ? "bsp" : "async");
    const std::uint64_t before = skipped.value();
    EXPECT_EQ(streamedDigest(meme, env, schedule), reference);
    EXPECT_GT(skipped.value(), before);
  }
}

TEST(IncrementalSkip, BatchRunsNeverSkip) {
  // Without a stream attached there is no dirty oracle, so the batch path
  // must not touch the skip counter even for a skippable program.
  const AlgorithmEntry& meme = algorithm("meme");
  const AlgoEnv env = envFor(meme);
  auto& skipped =
      MetricsRegistry::global().counter("engine.subgraphs_skipped_incremental");
  const std::uint64_t before = skipped.value();
  (void)env.run(meme);
  EXPECT_EQ(skipped.value(), before);
}

TEST(IncrementalFaultRecovery, KillAtComputeMidStreamRecoversAndMatches) {
  // A worker dies at the compute site while later timesteps are still
  // streaming in. The rollback replays from the checkpoint; re-awaiting a
  // sealed timestep returns at once and the provider steps its columns
  // back through its swap log, so the digest stays byte-identical to the
  // fault-free batch run. The
  // skippable program (meme) recovers too: skipped subgraphs voted halt
  // before the kill, and the replay re-derives the same skips.
  auto& injector = fault::FaultInjector::global();
  injector.disarm();
  for (const char* name : {"tdsp", "meme"}) {
    const AlgorithmEntry& entry = algorithm(name);
    const AlgoEnv env = envFor(entry);
    const std::string baseline = env.run(entry).digest;
    for (const PartitionId victim : {PartitionId{0}, PartitionId{2}}) {
      SCOPED_TRACE(std::string(name) + " victim partition " +
                   std::to_string(victim));
      fault::FaultSpec spec;
      spec.site = fault::Site::kCompute;
      spec.action = fault::Action::kKill;
      spec.partition = victim;
      spec.timestep = 2;
      MemoryCheckpointStore store;
      injector.arm({spec}, 7);
      const std::string digest =
          streamedDigest(entry, env, Schedule::kBsp, &store);
      injector.disarm();
      EXPECT_EQ(digest, baseline);
    }
  }
}

// Outputs every subgraph's sum of its owned edges' latencies at each
// timestep: any stale or mis-patched instance cell changes a line.
class LatencySumProgram final : public TiBspProgram {
 public:
  void compute(SubgraphContext& ctx) override {
    if (ctx.superstep() == 0) {
      const GraphTemplate& tmpl = ctx.graphTemplate();
      double sum = 0.0;
      for (const VertexIndex v : ctx.subgraph().vertices) {
        for (const auto& out : tmpl.outEdges(v)) {
          sum += ctx.edgeDouble(0, out.edge);
        }
      }
      ctx.output(std::to_string(ctx.timestep()) + "," +
                 std::to_string(ctx.subgraphId()) + "," + std::to_string(sum));
    }
    ctx.voteToHalt();
  }
};

std::string latencyDigest(const PartitionedGraph& pg,
                          InstanceProvider& provider, const TiBspConfig& config) {
  TiBspEngine engine(pg, provider);
  auto outputs =
      engine
          .run([](PartitionId) { return std::make_unique<LatencySumProgram>(); },
               config)
          .outputs;
  std::sort(outputs.begin(), outputs.end());
  check::Digest d;
  d.addStrings(outputs);
  return d.hex();
}

TEST(IncrementalFaultRecovery, RollbackAcrossSeveralTimestepsRewindsTheLogs) {
  // Checkpoints land after timesteps 2 and 5. A kill at timestep 5, before
  // its checkpoint, rolls back to the one after timestep 2: every partition
  // already patched its columns to 5 and must step them back to 3, two
  // timesteps, then forward again.
  auto tmpl = testing::smallRoad(8, 8);
  const auto pg = testing::partitionGraph(tmpl, 3);
  const auto coll = testing::roadCollection(tmpl, 8);
  TiBspConfig config;
  config.pattern = Pattern::kIndependent;
  DirectInstanceProvider direct(pg, coll);
  const std::string baseline = latencyDigest(pg, direct, config);

  auto& injector = fault::FaultInjector::global();
  injector.disarm();
  for (const Schedule schedule : {Schedule::kBsp, Schedule::kAsync}) {
    SCOPED_TRACE(schedule == Schedule::kBsp ? "bsp" : "async");
    fault::FaultSpec kill;
    kill.site = fault::Site::kCompute;
    kill.action = fault::Action::kKill;
    kill.partition = 1;
    kill.timestep = 5;
    MemoryCheckpointStore store;
    TiBspConfig streamed = config;
    streamed.schedule = schedule;
    streamed.checkpoint_store = &store;
    streamed.checkpoint_period = 3;
    stream::StreamPipeline pipeline(pg, coll.numInstances(), coll.t0(),
                                    coll.delta(), /*queue_capacity=*/2);
    std::string digest;
    injector.arm({kill}, 7);
    const Status ingest = pipeline.run(
        stream::eventsFromCollection(coll),
        [&](stream::StreamingInstanceProvider& provider) {
          streamed.stream = &provider;
          digest = latencyDigest(pg, provider, streamed);
        });
    injector.disarm();
    EXPECT_TRUE(ingest.isOk());
    EXPECT_EQ(digest, baseline);
  }
}

}  // namespace
}  // namespace tsg
