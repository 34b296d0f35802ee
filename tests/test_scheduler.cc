// Dependency-driven scheduling tests: the ReadyTracker readiness rule, the
// StealDeque under thread-sanitizer stress, the Cluster wave protocol
// (seal exclusivity, stealing, fault abort + respawn), and the end-to-end
// guarantee that --schedule=async output is byte-identical to BSP — with
// and without injected faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/meme.h"
#include "common/steal_deque.h"
#include "gofs/checkpoint.h"
#include "gofs/instance_provider.h"
#include "runtime/cluster.h"
#include "runtime/fault_injector.h"
#include "runtime/ready_tracker.h"
#include "test_util.h"

namespace tsg {
namespace {

using testing::metricTotal;
using testing::partitionGraph;
using testing::smallSocial;
using testing::tweetCollection;

// ---------------------------------------------------------------------------
// ReadyTracker — the readiness rule as a pure function.
// ---------------------------------------------------------------------------

TEST(ReadyTracker, OutOfOrderDeliveriesAccumulatePerDestination) {
  ReadyTracker tracker(4);
  tracker.beginTimestep();
  // Senders finish in any order; counts land per destination.
  tracker.recordDelivery(2, 3);
  tracker.recordDelivery(0, 1);
  tracker.recordDelivery(2, 2);
  EXPECT_EQ(tracker.pendingMessages(2), 5u);
  EXPECT_EQ(tracker.pendingMessages(0), 1u);
  EXPECT_EQ(tracker.pendingMessages(1), 0u);

  // Everyone halted; only partitions with pending messages stay eligible.
  for (PartitionId p = 0; p < 4; ++p) {
    tracker.recordQuiesce(p, /*halted=*/true);
  }
  const auto next = tracker.advance();
  EXPECT_EQ(next, (std::vector<PartitionId>{0, 2}));
  EXPECT_EQ(tracker.wave(), 1);
  EXPECT_EQ(tracker.skippedRounds(), 2);
  // advance() consumed the pending counts.
  EXPECT_EQ(tracker.pendingMessages(2), 0u);
}

TEST(ReadyTracker, ZeroMessageSuperstepsStillRunUnhaltedPartitions) {
  ReadyTracker tracker(3);
  tracker.beginTimestep();
  // No traffic at all, but partition 1 did not halt: it must run again —
  // BSP also marches unhalted partitions through empty supersteps.
  tracker.recordQuiesce(0, true);
  tracker.recordQuiesce(1, false);
  tracker.recordQuiesce(2, true);
  EXPECT_FALSE(tracker.terminated());
  const auto next = tracker.advance();
  EXPECT_EQ(next, (std::vector<PartitionId>{1}));
  EXPECT_EQ(tracker.skippedRounds(), 2);
}

TEST(ReadyTracker, HaltedPartitionReactivatesOnDelivery) {
  ReadyTracker tracker(2);
  tracker.beginTimestep();
  tracker.recordQuiesce(0, true);
  tracker.recordQuiesce(1, true);
  EXPECT_TRUE(tracker.terminated());

  // A message bound for the halted partition 0 reactivates it.
  tracker.recordDelivery(0, 1);
  EXPECT_FALSE(tracker.terminated());
  EXPECT_EQ(tracker.advance(), (std::vector<PartitionId>{0}));
}

TEST(ReadyTracker, TerminatesWhenAllHaltedAndNothingInFlight) {
  ReadyTracker tracker(3);
  tracker.beginTimestep();
  EXPECT_FALSE(tracker.terminated());  // nobody quiesced halted yet
  for (PartitionId p = 0; p < 3; ++p) {
    tracker.recordQuiesce(p, true);
  }
  EXPECT_TRUE(tracker.terminated());
  // Matches BSP's (all_halted && delivered == 0): advance yields nobody.
  EXPECT_TRUE(tracker.advance().empty());
  EXPECT_EQ(tracker.skippedRounds(), 3);
}

TEST(ReadyTracker, BeginTimestepResetsWaveAndPending) {
  ReadyTracker tracker(2);
  tracker.beginTimestep();
  tracker.recordDelivery(1, 7);
  tracker.recordQuiesce(0, true);
  tracker.recordQuiesce(1, true);
  tracker.advance();
  EXPECT_EQ(tracker.wave(), 1);

  tracker.beginTimestep();
  EXPECT_EQ(tracker.wave(), 0);
  EXPECT_EQ(tracker.pendingMessages(1), 0u);
  // Superstep 0 of a fresh timestep runs unconditionally: no halt state
  // survives, so everyone is eligible.
  EXPECT_FALSE(tracker.terminated());
  EXPECT_EQ(tracker.advance(), (std::vector<PartitionId>{0, 1}));
}

// ---------------------------------------------------------------------------
// StealDeque — multithreaded stress (the TSan target).
// ---------------------------------------------------------------------------

TEST(StealDeque, OwnerIsLifoThiefIsFifo) {
  StealDeque<int> dq;
  dq.pushBottom(1);
  dq.pushBottom(2);
  dq.pushBottom(3);
  EXPECT_EQ(dq.size(), 3u);
  EXPECT_EQ(dq.stealTop().value(), 1);   // thief takes the oldest
  EXPECT_EQ(dq.popBottom().value(), 3);  // owner takes the newest
  EXPECT_EQ(dq.popBottom().value(), 2);
  EXPECT_FALSE(dq.popBottom().has_value());
  EXPECT_TRUE(dq.empty());
}

TEST(StealDeque, ConcurrentOwnerAndThievesConserveItems) {
  constexpr int kItems = 2000;
  constexpr int kThieves = 3;
  StealDeque<int> dq;
  std::atomic<std::int64_t> popped_sum{0};
  std::atomic<int> popped_count{0};

  // Owner interleaves pushes with pops; thieves hammer stealTop. Every item
  // must come out exactly once (sum check), across any interleaving.
  std::thread owner([&] {
    for (int i = 1; i <= kItems; ++i) {
      dq.pushBottom(i);
      if (i % 3 == 0) {
        if (auto v = dq.popBottom()) {
          popped_sum.fetch_add(*v);
          popped_count.fetch_add(1);
        }
      }
    }
  });
  std::vector<std::thread> thieves;
  std::atomic<bool> done{false};
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load() || !dq.empty()) {
        if (auto v = dq.stealTop()) {
          popped_sum.fetch_add(*v);
          popped_count.fetch_add(1);
        }
      }
    });
  }
  owner.join();
  done.store(true);
  for (auto& t : thieves) {
    t.join();
  }
  EXPECT_EQ(popped_count.load(), kItems);
  EXPECT_EQ(popped_sum.load(),
            static_cast<std::int64_t>(kItems) * (kItems + 1) / 2);
}

// ---------------------------------------------------------------------------
// Cluster::runWaves — the wave protocol.
// ---------------------------------------------------------------------------

// Scripted driver: wave w runs the partitions the script lists, the seal
// returns the next wave's set. Verifies seal exclusivity (no task in
// flight) and per-wave task bookkeeping.
class ScriptedDriver final : public Cluster::Driver {
 public:
  explicit ScriptedDriver(std::vector<std::vector<PartitionId>> script)
      : script_(std::move(script)) {}

  void runTask(PartitionId p, const Cluster::TaskInfo& info) override {
    std::lock_guard lock(mutex_);
    ++in_flight_;
    EXPECT_FALSE(sealing_) << "task ran while a seal was in progress";
    ran_.emplace_back(info.wave, p);
    EXPECT_GE(info.ready_wait_ns, 0);
    stolen_ += info.stolen ? 1 : 0;
    --in_flight_;
  }

  std::vector<PartitionId> sealWave(const Cluster::Seal& seal) override {
    std::lock_guard lock(mutex_);
    const std::int32_t wave = seal.wave;
    // Every wait runs up to the straggler's end, a task of this wave.
    for (const std::int64_t w : seal.wait_ns) {
      EXPECT_GE(w, 0);
    }
    EXPECT_NE(std::find(seal.wait_ns.begin(), seal.wait_ns.end(), 0),
              seal.wait_ns.end());
    const auto& members = script_[static_cast<std::size_t>(wave)];
    EXPECT_NE(std::find(members.begin(), members.end(), seal.straggler),
              members.end())
        << "wave " << wave << " straggler " << seal.straggler;
    EXPECT_EQ(in_flight_, 0) << "seal ran concurrently with a task";
    sealing_ = true;
    seals_.push_back(wave);
    sealing_ = false;
    const auto next = static_cast<std::size_t>(wave) + 1;
    if (next < script_.size()) {
      return script_[next];
    }
    return {};
  }

  std::vector<std::pair<std::int32_t, PartitionId>> ran() {
    std::lock_guard lock(mutex_);
    return ran_;
  }
  std::vector<std::int32_t> seals() {
    std::lock_guard lock(mutex_);
    return seals_;
  }

 private:
  std::mutex mutex_;
  std::vector<std::vector<PartitionId>> script_;
  std::vector<std::pair<std::int32_t, PartitionId>> ran_;
  std::vector<std::int32_t> seals_;
  int in_flight_ = 0;
  int stolen_ = 0;
  bool sealing_ = false;
};

TEST(Cluster, RunsScriptedWavesAndSealsEachExactlyOnce) {
  Cluster cluster(4);
  // Wave 0: everyone. Wave 1: partitions 1 and 3 (0 and 2 "halted").
  // Wave 2: just 3. Then done.
  ScriptedDriver driver({{0, 1, 2, 3}, {1, 3}, {3}});
  cluster.runWaves(driver, {0, 1, 2, 3}, Cluster::Sync::kSteal);

  const auto seals = driver.seals();
  EXPECT_EQ(seals, (std::vector<std::int32_t>{0, 1, 2}));

  // Each scripted (wave, partition) ran exactly once.
  std::set<std::pair<std::int32_t, PartitionId>> seen;
  for (const auto& entry : driver.ran()) {
    EXPECT_TRUE(seen.insert(entry).second)
        << "wave " << entry.first << " partition " << entry.second
        << " ran twice";
  }
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_TRUE(seen.count({1, 1}) == 1 && seen.count({1, 3}) == 1);
  EXPECT_TRUE(seen.count({2, 3}) == 1);
}

// A stealing wave seals when its slowest task ends: the other workers'
// idle until then is their seal wait (cluster.seal_wait_ns, not barrier
// wait), and the seal names the slow task's partition as the straggler —
// whichever worker ran it.
class SlowOneDriver final : public Cluster::Driver {
 public:
  // p0's and p2's tasks hold their workers until p1's has started, so one
  // worker cannot run all three back to back: at least one other worker
  // ends ~20 ms before p1's and idles until the seal.
  void runTask(PartitionId p, const Cluster::TaskInfo&) override {
    if (p == 1) {
      p1_started_.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return;
    }
    while (!p1_started_.load()) {
      std::this_thread::yield();
    }
  }
  std::vector<PartitionId> sealWave(const Cluster::Seal& seal) override {
    straggler_ = seal.straggler;
    wait_ns_.assign(seal.wait_ns.begin(), seal.wait_ns.end());
    return {};
  }
  std::atomic<bool> p1_started_{false};
  PartitionId straggler_ = kInvalidPartition;
  std::vector<std::int64_t> wait_ns_;
};

TEST(Cluster, StealWaveMetersSealWaitAndNamesTheStraggler) {
  Cluster cluster(3);
  auto& registry = MetricsRegistry::global();
  const auto seal_before = registry.counter("cluster.seal_wait_ns").value();
  const auto barrier_before =
      registry.counter("cluster.barrier_wait_ns").value();
  SlowOneDriver driver;
  cluster.runWaves(driver, {0, 1, 2}, Cluster::Sync::kSteal);
  EXPECT_EQ(driver.straggler_, 1u);
  ASSERT_EQ(driver.wait_ns_.size(), 3u);
  const std::int64_t total = std::accumulate(
      driver.wait_ns_.begin(), driver.wait_ns_.end(), std::int64_t{0});
  EXPECT_GT(total, 10'000'000);
  EXPECT_EQ(registry.counter("cluster.seal_wait_ns").value() - seal_before,
            static_cast<std::uint64_t>(total));
  EXPECT_EQ(registry.counter("cluster.barrier_wait_ns").value(),
            barrier_before);
}

// A task fault must abort the phase (RecoveryNeeded), leave the dead worker
// respawnable, and the rerun after respawn must succeed — mirroring the
// engine's rollback protocol.
class FaultyDriver final : public Cluster::Driver {
 public:
  explicit FaultyDriver(std::atomic<bool>* armed) : armed_(armed) {}
  void runTask(PartitionId p, const Cluster::TaskInfo&) override {
    if (p == 1 && armed_->exchange(false)) {
      throw fault::WorkerFault(p, /*timestep=*/0, fault::Site::kCompute);
    }
    tasks_.fetch_add(1);
  }
  std::vector<PartitionId> sealWave(const Cluster::Seal& seal) override {
    return seal.wave == 0 ? std::vector<PartitionId>{0, 1, 2}
                          : std::vector<PartitionId>{};
  }
  std::atomic<int> tasks_{0};

 private:
  std::atomic<bool>* armed_;  // read by every worker running a task
};

TEST(Cluster, WaveTaskFaultAbortsPhaseAndRespawnsCleanly) {
  Cluster cluster(3);
  std::atomic<bool> armed{true};
  FaultyDriver driver(&armed);
  EXPECT_THROW(cluster.runWaves(driver, {0, 1, 2}, Cluster::Sync::kSteal),
               fault::RecoveryNeeded);
  EXPECT_LT(cluster.aliveWorkers(), 3u);
  EXPECT_EQ(cluster.respawnDead(), 1u);
  EXPECT_EQ(cluster.aliveWorkers(), 3u);

  // The fault record must have been drained by the failed phase: a clean
  // rerun (fault disarmed) must not re-throw a stale death.
  driver.tasks_.store(0);
  cluster.runWaves(driver, {0, 1, 2}, Cluster::Sync::kSteal);
  EXPECT_EQ(driver.tasks_.load(), 6);
}

// ---------------------------------------------------------------------------
// End-to-end: async output is byte-identical to BSP.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kPartitions = 3;
constexpr std::uint32_t kTimesteps = 5;

// The wait blame in a run's records conserves the scheduler's meters, with
// no profiler armed: every nanosecond of barrier, ready and seal wait is
// charged as caused to exactly one partition, and every steal to exactly
// one victim.
void expectBlameReconciles(const RunStats& stats, const char* schedule) {
  std::int64_t caused_ns = 0;
  std::int64_t stolen = 0;
  for (const auto& rec : stats.supersteps()) {
    for (const auto& part : rec.parts) {
      caused_ns += part.wait_caused_ns;
      stolen += static_cast<std::int64_t>(part.stolen);
    }
  }
  EXPECT_EQ(caused_ns, testing::meteredWaitNs(stats)) << schedule;
  EXPECT_EQ(stolen, metricTotal(stats, "cluster.steals")) << schedule;
}

// Every algorithm, in-process: the async digest is the BSP digest. BSP
// supersteps are barriered and never stealing. Both runs' blame reconciles.
void expectAsyncMatchesBsp(const AlgorithmEntry& entry) {
  const testing::AlgoEnv env = testing::envFor(entry);
  AlgorithmRequest async_request;
  async_request.schedule = Schedule::kAsync;
  const AlgorithmRun bsp = env.run(entry);
  const AlgorithmRun async = env.run(entry, async_request);
  EXPECT_EQ(async.digest, bsp.digest);
  EXPECT_EQ(metricTotal(bsp.stats, "cluster.waves"), 0);
  EXPECT_EQ(metricTotal(bsp.stats, "cluster.steals"), 0);
  EXPECT_EQ(metricTotal(bsp.stats, "cluster.seal_wait_ns"), 0);
  expectBlameReconciles(bsp.stats, "bsp");
  expectBlameReconciles(async.stats, "async");
}

const bool kAsyncMatchesBsp = testing::registerPerAlgorithm(
    "AsyncSchedule", "DigestMatchesBspExactly", &expectAsyncMatchesBsp);

// Async supersteps are stealing waves (topn's concurrent timesteps run
// their phases inline, so tdsp is the witness).
TEST(AsyncSchedule, TdspRunsStealingWaves) {
  const AlgorithmEntry& tdsp = testing::algorithm("tdsp");
  AlgorithmRequest async_request;
  async_request.schedule = Schedule::kAsync;
  const AlgorithmRun async = testing::envFor(tdsp).run(tdsp, async_request);
  EXPECT_GT(metricTotal(async.stats, "cluster.waves"), 0);
}

// Every wait a run's records charge to sync_ns is metered in the registry:
// barriered waves (BSP supersteps, end-of-timestep and maintenance waves,
// under either schedule) into cluster.barrier_wait_ns, async wave pickups
// into engine.ready_wait_ns and async idle until the seal into
// cluster.seal_wait_ns. Nothing is counted twice or left out. And
// every record is exactly one sealed wave: a barrier (cluster.rounds) or,
// for async compute and merge supersteps, a stealing wave (cluster.waves).
TEST(AsyncSchedule, SyncNsReconcilesWithRegistryWaitUnderBothSchedules) {
  auto tmpl = smallSocial(64);
  PartitionedGraph pg = partitionGraph(tmpl, kPartitions);
  TimeSeriesCollection coll = tweetCollection(tmpl, kTimesteps);
  for (const Schedule schedule : {Schedule::kBsp, Schedule::kAsync}) {
    DirectInstanceProvider provider(pg, coll);
    MemeOptions options;
    options.tweets_attr = tmpl->vertexSchema().requireIndex("tweets");
    options.maintenance_period = 2;
    options.schedule = schedule;
    const auto run = runMemeTracking(pg, provider, options);
    std::int64_t sync_ns = 0;
    for (const auto& rec : run.exec.stats.supersteps()) {
      for (const auto& part : rec.parts) {
        sync_ns += part.sync_ns;
      }
    }
    const auto& stats = run.exec.stats;
    EXPECT_EQ(sync_ns, testing::meteredWaitNs(stats))
        << (schedule == Schedule::kBsp ? "bsp" : "async");
    // Maintenance records are built by hand; their blame must count too.
    expectBlameReconciles(stats, schedule == Schedule::kBsp ? "bsp" : "async");
    const auto records =
        static_cast<std::int64_t>(stats.supersteps().size());
    std::int64_t maintenance = 0;
    for (const auto& rec : stats.supersteps()) {
      maintenance += rec.superstep == -1 ? 1 : 0;
    }
    ASSERT_GT(maintenance, 0);
    // One end-of-timestep record per executed timestep.
    const std::int64_t end_of_timestep = run.exec.timesteps_executed;
    if (schedule == Schedule::kBsp) {
      EXPECT_EQ(metricTotal(stats, "cluster.rounds"), records);
      EXPECT_EQ(metricTotal(stats, "cluster.waves"), 0);
      EXPECT_EQ(metricTotal(stats, "cluster.steals"), 0);
      EXPECT_EQ(metricTotal(stats, "engine.ready_wait_ns"), 0);
      EXPECT_EQ(metricTotal(stats, "cluster.seal_wait_ns"), 0);
    } else {
      EXPECT_EQ(metricTotal(stats, "cluster.waves"),
                records - end_of_timestep - maintenance);
      EXPECT_EQ(metricTotal(stats, "cluster.rounds"),
                end_of_timestep + maintenance);
    }
  }
}

// Async × fault recovery: a worker killed mid-compute and a dropped
// delivery batch must both recover to the fault-free BSP digest.
void expectAsyncRecoversToBspDigest(const fault::FaultSpec& spec) {
  const AlgorithmEntry& tdsp = testing::algorithm("tdsp");
  const testing::AlgoEnv env = testing::envFor(tdsp);
  auto& injector = fault::FaultInjector::global();
  injector.disarm();
  const AlgorithmRun baseline = env.run(tdsp);

  MemoryCheckpointStore store;
  AlgorithmRequest request;
  request.schedule = Schedule::kAsync;
  request.checkpoint_store = &store;
  injector.arm({spec}, 7);
  const AlgorithmRun faulted = env.run(tdsp, request);
  injector.disarm();
  EXPECT_GE(metricTotal(faulted.stats, "engine.recoveries"), 1);
  EXPECT_EQ(faulted.digest, baseline.digest);
}

TEST(AsyncSchedule, RecoversFromKillAtComputeToBspDigest) {
  fault::FaultSpec kill;
  kill.site = fault::Site::kCompute;
  kill.action = fault::Action::kKill;
  kill.partition = 1;
  kill.timestep = 1;
  expectAsyncRecoversToBspDigest(kill);
}

TEST(AsyncSchedule, RecoversFromDroppedDeliveryToBspDigest) {
  fault::FaultSpec drop;
  drop.site = fault::Site::kDeliver;
  drop.action = fault::Action::kDrop;
  drop.timestep = 1;
  expectAsyncRecoversToBspDigest(drop);
}

}  // namespace
}  // namespace tsg
