// Recovery test matrix — the headline fault-tolerance guarantee: for every
// shipped algorithm, killing a worker at any instrumented site (compute,
// barrier, slice-load) on any victim partition, or dropping a delivery
// batch, must leave the run's semantic outputs byte-identical to a
// fault-free run. Each cell arms one fault, runs with a checkpoint store,
// and compares canonical digests against the disarmed baseline.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "gofs/checkpoint.h"
#include "gofs/dataset.h"
#include "runtime/fault_injector.h"
#include "test_util.h"

namespace tsg {
namespace {

using testing::AlgoEnv;
using testing::algorithm;
using testing::envFor;
using testing::metricTotal;
using testing::unwrap;

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

// Each cell arms one fault and runs with a checkpoint store. The fault
// lands in the second timestep when the fault-free run has one, else in
// the only one. The single-BSP vertex engine recovers by restarting and
// ignores the store.
void expectEveryCellRecovers(const AlgorithmEntry& entry) {
  const AlgoEnv env = envFor(entry);
  auto& injector = fault::FaultInjector::global();
  injector.disarm();
  const AlgorithmRun baseline = env.run(entry);
  ASSERT_EQ(metricTotal(baseline.stats, "engine.recoveries"), 0);
  const Timestep fault_t = baseline.stats.numTimesteps() > 1 ? 1 : 0;

  for (const fault::FaultSpec& cell : cellsFor(fault_t)) {
    SCOPED_TRACE(std::string(fault::actionName(cell.action)) + "@" +
                 std::string(fault::siteName(cell.site)) + " p=" +
                 std::to_string(cell.partition) + " t=" +
                 std::to_string(cell.timestep));
    MemoryCheckpointStore store;
    AlgorithmRequest request;
    request.checkpoint_store = &store;
    injector.arm({cell}, 7);
    const AlgorithmRun faulted = env.run(entry, request);
    injector.disarm();
    EXPECT_GE(metricTotal(faulted.stats, "engine.recoveries"), 1);
    EXPECT_EQ(faulted.digest, baseline.digest);
  }
}

const bool kFaultMatrix =
    testing::registerPerAlgorithm("FaultMatrix", "", &expectEveryCellRecovers);

// Transient faults (delays) must be absorbed in place: same digest, zero
// recoveries, and the straggler sleep shows up in the metrics delta.
TEST(FaultMatrix, TransientDelaysAreAbsorbedWithoutRecovery) {
  const AlgorithmEntry& tdsp = algorithm("tdsp");
  const AlgoEnv env = envFor(tdsp);
  auto& injector = fault::FaultInjector::global();
  injector.disarm();
  const AlgorithmRun baseline = env.run(tdsp);

  injector.arm(unwrap(fault::parseFaultPlan(
                   "delay@compute:p1:t1:d500,delay@deliver:t1:d500")),
               7);
  const AlgorithmRun delayed = env.run(tdsp);
  EXPECT_GE(injector.totalFired(), 2u);
  injector.disarm();
  EXPECT_EQ(metricTotal(delayed.stats, "engine.recoveries"), 0);
  EXPECT_EQ(delayed.digest, baseline.digest);
}

// Transient GoFS slice-load failures retry with backoff inside the lazy
// provider — no recovery, same answer, and the retries are counted.
TEST(FaultMatrix, SliceLoadFailuresRetryWithoutRecovery) {
  const AlgorithmEntry& sssp = algorithm("sssp");
  const AlgoEnv env = envFor(sssp);
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
    return unwrap(runAlgorithm(sssp, ds.partitionedGraph(), *provider, {}));
  };
  const AlgorithmRun baseline = runOnce();

  injector.arm(unwrap(fault::parseFaultPlan("fail@slice-load:p0:t0:x2")), 7);
  const AlgorithmRun faulted = runOnce();
  injector.disarm();
  EXPECT_EQ(faulted.digest, baseline.digest);
  EXPECT_GE(metricTotal(faulted.stats, "gofs.load_retries"), 2);
}

// Checkpoint cadence: a fault-free run with a store writes the initial
// (pristine) checkpoint plus one per executed timestep.
TEST(FaultMatrix, CheckpointCadenceIsOnePerTimestepPlusInitial) {
  const AlgorithmEntry& tdsp = algorithm("tdsp");
  const AlgoEnv env = envFor(tdsp);
  fault::FaultInjector::global().disarm();
  MemoryCheckpointStore store;
  AlgorithmRequest request;
  request.checkpoint_store = &store;
  const AlgorithmRun run = env.run(tdsp, request);
  const std::int32_t timesteps = run.stats.numTimesteps();
  EXPECT_EQ(store.saves(), static_cast<std::uint64_t>(timesteps) + 1);
  EXPECT_EQ(metricTotal(run.stats, "engine.checkpoints"), timesteps + 1);
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

// TSG_INJECT / TSG_INJECT_SEED get the same validation as --inject: a typo
// is an InvalidArgument naming the variable, and nothing is armed.
TEST(FaultMatrix, ArmFromEnvRejectsMalformedPlanAndSeed) {
  auto& injector = fault::FaultInjector::global();
  injector.disarm();

  ::setenv("TSG_INJECT", "garbage", 1);
  ::setenv("TSG_INJECT_SEED", "abc", 1);
  Status armed = fault::armFromEnv();
  EXPECT_EQ(armed.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(armed.message().find("TSG_INJECT: bad fault plan 'garbage'"),
            std::string::npos)
      << armed.toString();
  EXPECT_FALSE(injector.armed());

  ::setenv("TSG_INJECT", "kill@compute:p1:t2", 1);
  armed = fault::armFromEnv();
  EXPECT_EQ(armed.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(armed.message().find("TSG_INJECT_SEED: not an integer: 'abc'"),
            std::string::npos)
      << armed.toString();
  EXPECT_FALSE(injector.armed());

  ::setenv("TSG_INJECT_SEED", "9", 1);
  EXPECT_TRUE(fault::armFromEnv().isOk());
  EXPECT_TRUE(injector.armed());

  injector.disarm();
  ::unsetenv("TSG_INJECT");
  ::unsetenv("TSG_INJECT_SEED");
}

}  // namespace
}  // namespace tsg
