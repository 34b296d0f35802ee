// Recovery test matrix — the headline fault-tolerance guarantee: for every
// shipped algorithm, killing a worker at any instrumented site (compute,
// barrier, slice-load) on any victim partition, or dropping a delivery
// batch, must leave the run's semantic outputs byte-identical to a
// fault-free run. Each cell arms one fault, runs with a checkpoint store,
// and compares canonical digests against the disarmed baseline.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "algorithms/hashtag.h"
#include "algorithms/meme.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "algorithms/tdsp.h"
#include "algorithms/tdsp_vertex.h"
#include "algorithms/topn.h"
#include "algorithms/wcc.h"
#include "check/digest.h"
#include "gofs/checkpoint.h"
#include "gofs/dataset.h"
#include "gofs/instance_provider.h"
#include "runtime/fault_injector.h"
#include "vertexcentric/programs.h"
#include "test_util.h"

namespace tsg {
namespace {

using testing::partitionGraph;
using testing::roadCollection;
using testing::smallRoad;
using testing::smallSocial;
using testing::tweetCollection;
using testing::unwrap;

constexpr std::uint32_t kPartitions = 3;
constexpr std::uint32_t kTimesteps = 5;

struct RoadEnv {
  GraphTemplatePtr tmpl = smallRoad(8, 8);
  PartitionedGraph pg = partitionGraph(tmpl, kPartitions);
  TimeSeriesCollection coll = roadCollection(tmpl, kTimesteps);
  std::size_t latency_attr = tmpl->edgeSchema().requireIndex("latency");
};

struct SocialEnv {
  GraphTemplatePtr tmpl = smallSocial(64);
  PartitionedGraph pg = partitionGraph(tmpl, kPartitions);
  TimeSeriesCollection coll = tweetCollection(tmpl, kTimesteps);
  std::size_t tweets_attr = tmpl->vertexSchema().requireIndex("tweets");
};

std::int64_t metricTotal(const RunStats& stats, const std::string& name) {
  std::int64_t total = 0;
  for (const auto& point : stats.metrics()) {
    if (point.name == name) {
      total += point.value;
    }
  }
  return total;
}

// One algorithm run: its canonical output digest plus the recovery count
// from the run's metrics delta.
struct MatrixRun {
  std::string digest;
  std::int64_t recoveries = 0;
};
using Runner = std::function<MatrixRun(CheckpointStore*)>;

// One fault per cell: three kill sites x two victim partitions, plus a
// dropped delivery batch (delivery faults hit the whole exchange, so the
// partition filter is the wildcard).
std::vector<fault::FaultSpec> cellsFor(Timestep fault_t) {
  std::vector<fault::FaultSpec> cells;
  for (const fault::Site site :
       {fault::Site::kCompute, fault::Site::kBarrier,
        fault::Site::kSliceLoad}) {
    for (const PartitionId victim : {PartitionId{0}, PartitionId{2}}) {
      fault::FaultSpec spec;
      spec.site = site;
      spec.action = fault::Action::kKill;
      spec.partition = victim;
      spec.timestep = fault_t;
      cells.push_back(spec);
    }
  }
  fault::FaultSpec drop;
  drop.site = fault::Site::kDeliver;
  drop.action = fault::Action::kDrop;
  drop.timestep = fault_t;
  cells.push_back(drop);
  return cells;
}

void expectEveryCellRecovers(const Runner& run, Timestep fault_t) {
  auto& injector = fault::FaultInjector::global();
  injector.disarm();
  const MatrixRun baseline = run(nullptr);
  ASSERT_EQ(baseline.recoveries, 0);
  ASSERT_FALSE(baseline.digest.empty());

  for (const fault::FaultSpec& cell : cellsFor(fault_t)) {
    SCOPED_TRACE(std::string(fault::actionName(cell.action)) + "@" +
                 std::string(fault::siteName(cell.site)) + " p=" +
                 std::to_string(cell.partition) + " t=" +
                 std::to_string(cell.timestep));
    MemoryCheckpointStore store;
    injector.arm({cell}, 7);
    const MatrixRun faulted = run(&store);
    injector.disarm();
    EXPECT_GE(faulted.recoveries, 1);
    EXPECT_EQ(faulted.digest, baseline.digest);
  }
}

TEST(FaultMatrix, Tdsp) {
  RoadEnv env;
  expectEveryCellRecovers(
      [&](CheckpointStore* store) {
        DirectInstanceProvider provider(env.pg, env.coll);
        TdspOptions options;
        options.latency_attr = env.latency_attr;
        options.checkpoint_store = store;
        const auto run = runTdsp(env.pg, provider, options);
        check::Digest d;
        d.addDoubles(run.tdsp);
        d.addVector(run.finalized_at,
                    [](check::Digest& dd, Timestep t) { dd.addI64(t); });
        d.addI64(run.exec.timesteps_executed);
        return MatrixRun{d.hex(), metricTotal(run.exec.stats,
                                              "engine.recoveries")};
      },
      /*fault_t=*/1);
}

TEST(FaultMatrix, Meme) {
  SocialEnv env;
  expectEveryCellRecovers(
      [&](CheckpointStore* store) {
        DirectInstanceProvider provider(env.pg, env.coll);
        MemeOptions options;
        options.tweets_attr = env.tweets_attr;
        options.checkpoint_store = store;
        const auto run = runMemeTracking(env.pg, provider, options);
        check::Digest d;
        d.addVector(run.colored_at,
                    [](check::Digest& dd, Timestep t) { dd.addI64(t); });
        return MatrixRun{d.hex(), metricTotal(run.exec.stats,
                                              "engine.recoveries")};
      },
      /*fault_t=*/1);
}

TEST(FaultMatrix, Hashtag) {
  SocialEnv env;
  expectEveryCellRecovers(
      [&](CheckpointStore* store) {
        DirectInstanceProvider provider(env.pg, env.coll);
        HashtagOptions options;
        options.tweets_attr = env.tweets_attr;
        options.checkpoint_store = store;
        const auto run = runHashtagAggregation(env.pg, provider, options);
        check::Digest d;
        d.addU64s(run.counts);
        d.addI64s(run.rate_of_change);
        return MatrixRun{d.hex(), metricTotal(run.exec.stats,
                                              "engine.recoveries")};
      },
      /*fault_t=*/1);
}

TEST(FaultMatrix, PageRank) {
  RoadEnv env;
  expectEveryCellRecovers(
      [&](CheckpointStore* store) {
        DirectInstanceProvider provider(env.pg, env.coll);
        PageRankOptions options;
        options.checkpoint_store = store;
        const auto run = runSubgraphPageRank(env.pg, provider, options);
        check::Digest d;
        d.addDoubles(run.ranks);
        return MatrixRun{d.hex(), metricTotal(run.exec.stats,
                                              "engine.recoveries")};
      },
      /*fault_t=*/0);
}

TEST(FaultMatrix, Sssp) {
  RoadEnv env;
  expectEveryCellRecovers(
      [&](CheckpointStore* store) {
        DirectInstanceProvider provider(env.pg, env.coll);
        SsspOptions options;
        options.latency_attr = env.latency_attr;
        options.checkpoint_store = store;
        const auto run = runSubgraphSssp(env.pg, provider, options);
        check::Digest d;
        d.addDoubles(run.distances);
        return MatrixRun{d.hex(), metricTotal(run.exec.stats,
                                              "engine.recoveries")};
      },
      /*fault_t=*/0);
}

TEST(FaultMatrix, Wcc) {
  RoadEnv env;
  expectEveryCellRecovers(
      [&](CheckpointStore* store) {
        DirectInstanceProvider provider(env.pg, env.coll);
        WccOptions options;
        options.checkpoint_store = store;
        const auto run = runSubgraphWcc(env.pg, provider, options);
        check::Digest d;
        d.addVector(run.component,
                    [](check::Digest& dd, VertexIndex v) { dd.addU64(v); });
        d.addU64(run.num_components);
        return MatrixRun{d.hex(), metricTotal(run.exec.stats,
                                              "engine.recoveries")};
      },
      /*fault_t=*/0);
}

TEST(FaultMatrix, TopN) {
  SocialEnv env;
  expectEveryCellRecovers(
      [&](CheckpointStore* store) {
        DirectInstanceProvider provider(env.pg, env.coll);
        TopNOptions options;
        options.tweets_attr = env.tweets_attr;
        // Checkpointing requires the serial temporal mode; the concurrent
        // default has no timestep-boundary cut to checkpoint at.
        options.temporal_mode = TemporalMode::kSerial;
        options.checkpoint_store = store;
        const auto run = runTopActiveVertices(env.pg, provider, options);
        check::Digest d;
        d.addU64(run.top.size());
        for (const auto& per_t : run.top) {
          d.addVector(per_t,
                      [](check::Digest& dd, VertexIndex v) { dd.addU64(v); });
        }
        return MatrixRun{d.hex(), metricTotal(run.exec.stats,
                                              "engine.recoveries")};
      },
      /*fault_t=*/1);
}

TEST(FaultMatrix, TdspVertex) {
  RoadEnv env;
  expectEveryCellRecovers(
      [&](CheckpointStore* store) {
        DirectInstanceProvider provider(env.pg, env.coll);
        VertexTdspOptions options;
        options.latency_attr = env.latency_attr;
        options.checkpoint_store = store;
        const auto run = runVertexTdsp(env.pg, provider, options);
        check::Digest d;
        d.addDoubles(run.tdsp);
        d.addVector(run.finalized_at,
                    [](check::Digest& dd, Timestep t) { dd.addI64(t); });
        return MatrixRun{d.hex(), metricTotal(run.exec.stats,
                                              "engine.recoveries")};
      },
      /*fault_t=*/1);
}

TEST(FaultMatrix, SsspVertex) {
  RoadEnv env;
  // The single-BSP engine recovers by restarting (no checkpoint store);
  // the store argument is deliberately unused.
  expectEveryCellRecovers(
      [&](CheckpointStore*) {
        vertexcentric::SsspVertexProgram program(0);
        vertexcentric::VertexCentricEngine engine(env.pg);
        const auto run =
            engine.run(program, vertexcentric::VcConfig{},
                       [](VertexIndex) { return vertexcentric::kInf; });
        check::Digest d;
        d.addDoubles(run.values);
        d.addI64(run.supersteps);
        return MatrixRun{d.hex(),
                         metricTotal(run.stats, "engine.recoveries")};
      },
      /*fault_t=*/0);
}

// Transient faults (delays) must be absorbed in place: same digest, zero
// recoveries, and the straggler sleep shows up in the metrics delta.
TEST(FaultMatrix, TransientDelaysAreAbsorbedWithoutRecovery) {
  RoadEnv env;
  auto& injector = fault::FaultInjector::global();
  injector.disarm();

  const auto runOnce = [&]() {
    DirectInstanceProvider provider(env.pg, env.coll);
    TdspOptions options;
    options.latency_attr = env.latency_attr;
    const auto run = runTdsp(env.pg, provider, options);
    check::Digest d;
    d.addDoubles(run.tdsp);
    d.addI64(run.exec.timesteps_executed);
    return MatrixRun{d.hex(),
                     metricTotal(run.exec.stats, "engine.recoveries")};
  };
  const MatrixRun baseline = runOnce();

  injector.arm(unwrap(fault::parseFaultPlan(
                   "delay@compute:p1:t1:d500,delay@deliver:t1:d500")),
               7);
  const MatrixRun delayed = runOnce();
  EXPECT_GE(injector.totalFired(), 2u);
  injector.disarm();
  EXPECT_EQ(delayed.recoveries, 0);
  EXPECT_EQ(delayed.digest, baseline.digest);
}

// Transient GoFS slice-load failures retry with backoff inside the lazy
// provider — no recovery, same answer, and the retries are counted.
TEST(FaultMatrix, SliceLoadFailuresRetryWithoutRecovery) {
  RoadEnv env;
  testing::TempDir tmp("tsg_fault_gofs");
  GofsOptions gofs;
  gofs.temporal_packing = 3;
  ASSERT_TRUE(
      writeGofsDataset(tmp.path(), "fault-mini", env.pg, env.coll, gofs)
          .isOk());
  auto ds = unwrap(GofsDataset::open(tmp.path()));

  auto& injector = fault::FaultInjector::global();
  injector.disarm();
  const auto runOnce = [&]() {
    auto provider = ds.makeProvider();
    SsspOptions options;
    options.latency_attr = env.latency_attr;
    const auto run = runSubgraphSssp(ds.partitionedGraph(), *provider,
                                     options);
    check::Digest d;
    d.addDoubles(run.distances);
    return std::pair<std::string, std::int64_t>(
        d.hex(), metricTotal(run.exec.stats, "gofs.load_retries"));
  };
  const auto baseline = runOnce();

  injector.arm(unwrap(fault::parseFaultPlan("fail@slice-load:p0:t0:x2")), 7);
  const auto faulted = runOnce();
  injector.disarm();
  EXPECT_EQ(faulted.first, baseline.first);
  EXPECT_GE(faulted.second, 2);
}

// Checkpoint cadence: a fault-free run with a store writes the initial
// (pristine) checkpoint plus one per executed timestep.
TEST(FaultMatrix, CheckpointCadenceIsOnePerTimestepPlusInitial) {
  RoadEnv env;
  fault::FaultInjector::global().disarm();
  DirectInstanceProvider provider(env.pg, env.coll);
  MemoryCheckpointStore store;
  TdspOptions options;
  options.latency_attr = env.latency_attr;
  options.checkpoint_store = &store;
  const auto run = runTdsp(env.pg, provider, options);
  EXPECT_EQ(store.saves(),
            static_cast<std::uint64_t>(run.exec.timesteps_executed) + 1);
  EXPECT_EQ(metricTotal(run.exec.stats, "engine.checkpoints"),
            run.exec.timesteps_executed + 1);
}

// Plan-string syntax: round-trip and the loud rejection of combinations no
// hook implements (a plan that could never fire must not run fault-free).
TEST(FaultMatrix, ParseFaultPlanValidatesActionSiteCombinations) {
  const auto plan = unwrap(fault::parseFaultPlan(
      "kill@compute:p1:t2,drop@deliver:t1,fail@slice-load:p0:t1:x2,"
      "delay@deliver:d5000"));
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0].site, fault::Site::kCompute);
  EXPECT_EQ(plan[0].action, fault::Action::kKill);
  EXPECT_EQ(plan[0].partition, 1u);
  EXPECT_EQ(plan[0].timestep, 2);
  EXPECT_EQ(plan[2].fires, 2);
  EXPECT_EQ(plan[3].delay_us, 5000);

  EXPECT_FALSE(fault::parseFaultPlan("kill@deliver").isOk());
  EXPECT_FALSE(fault::parseFaultPlan("drop@compute").isOk());
  EXPECT_FALSE(fault::parseFaultPlan("fail@barrier").isOk());
  EXPECT_FALSE(fault::parseFaultPlan("").isOk());
}

}  // namespace
}  // namespace tsg
