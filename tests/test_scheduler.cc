// Dependency-driven scheduling tests: the ReadyTracker readiness rule, the
// StealDeque under thread-sanitizer stress, the Cluster wave protocol
// (seal exclusivity, stealing, fault abort + respawn), and the end-to-end
// guarantee that --schedule=async output is byte-identical to BSP — with
// and without injected faults.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/meme.h"
#include "algorithms/tdsp.h"
#include "check/digest.h"
#include "common/thread_pool.h"
#include "gofs/checkpoint.h"
#include "gofs/instance_provider.h"
#include "runtime/cluster.h"
#include "runtime/fault_injector.h"
#include "runtime/ready_tracker.h"
#include "test_util.h"

namespace tsg {
namespace {

using testing::partitionGraph;
using testing::roadCollection;
using testing::smallRoad;
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

  std::vector<PartitionId> sealWave(std::int32_t wave) override {
    std::lock_guard lock(mutex_);
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
  cluster.runWaves(driver, {0, 1, 2, 3});

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
  std::vector<PartitionId> sealWave(std::int32_t wave) override {
    return wave == 0 ? std::vector<PartitionId>{0, 1, 2}
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
  EXPECT_THROW(cluster.runWaves(driver, {0, 1, 2}),
               fault::RecoveryNeeded);
  EXPECT_LT(cluster.aliveWorkers(), 3u);
  EXPECT_EQ(cluster.respawnDead(), 1u);
  EXPECT_EQ(cluster.aliveWorkers(), 3u);

  // The fault record must have been drained by the failed phase: a clean
  // rerun (fault disarmed) must not re-throw a stale death.
  driver.tasks_.store(0);
  cluster.runWaves(driver, {0, 1, 2});
  EXPECT_EQ(driver.tasks_.load(), 6);
}

// ---------------------------------------------------------------------------
// End-to-end: async output is byte-identical to BSP.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kPartitions = 3;
constexpr std::uint32_t kTimesteps = 5;

std::int64_t metricTotal(const RunStats& stats, const std::string& name) {
  std::int64_t total = 0;
  for (const auto& point : stats.metrics()) {
    if (point.name == name) {
      total += point.value;
    }
  }
  return total;
}

struct TdspDigestRun {
  std::string digest;
  std::int64_t recoveries = 0;
  std::int64_t waves = 0;
};

TdspDigestRun runTdspWith(Schedule schedule, CheckpointStore* store,
                          const PartitionedGraph& pg,
                          const TimeSeriesCollection& coll,
                          std::size_t latency_attr) {
  DirectInstanceProvider provider(pg, coll);
  TdspOptions options;
  options.latency_attr = latency_attr;
  options.schedule = schedule;
  options.checkpoint_store = store;
  const auto run = runTdsp(pg, provider, options);
  check::Digest d;
  d.addDoubles(run.tdsp);
  d.addVector(run.finalized_at,
              [](check::Digest& dd, Timestep t) { dd.addI64(t); });
  d.addI64(run.exec.timesteps_executed);
  return TdspDigestRun{d.hex(),
                       metricTotal(run.exec.stats, "engine.recoveries"),
                       metricTotal(run.exec.stats, "cluster.waves")};
}

TEST(AsyncSchedule, TdspDigestMatchesBspExactly) {
  auto tmpl = smallRoad(8, 8);
  PartitionedGraph pg = partitionGraph(tmpl, kPartitions);
  TimeSeriesCollection coll = roadCollection(tmpl, kTimesteps);
  const std::size_t latency = tmpl->edgeSchema().requireIndex("latency");

  const auto bsp = runTdspWith(Schedule::kBsp, nullptr, pg, coll, latency);
  const auto async = runTdspWith(Schedule::kAsync, nullptr, pg, coll, latency);
  EXPECT_EQ(async.digest, bsp.digest);
  EXPECT_GT(async.waves, 0);
  EXPECT_EQ(bsp.waves, 0);  // BSP never touches the wave scheduler
}

TEST(AsyncSchedule, MemeDigestMatchesBspExactly) {
  auto tmpl = smallSocial(64);
  PartitionedGraph pg = partitionGraph(tmpl, kPartitions);
  TimeSeriesCollection coll = tweetCollection(tmpl, kTimesteps);
  const std::size_t tweets = tmpl->vertexSchema().requireIndex("tweets");

  auto digestOf = [&](Schedule schedule) {
    DirectInstanceProvider provider(pg, coll);
    MemeOptions options;
    options.tweets_attr = tweets;
    options.schedule = schedule;
    const auto run = runMemeTracking(pg, provider, options);
    check::Digest d;
    d.addVector(run.colored_at,
                [](check::Digest& dd, Timestep t) { dd.addI64(t); });
    return d.hex();
  };
  EXPECT_EQ(digestOf(Schedule::kAsync), digestOf(Schedule::kBsp));
}

// Every wait a run's records charge to sync_ns is metered in the registry:
// barrier rounds (BSP supersteps, end-of-timestep and maintenance rounds,
// under either schedule) into cluster.barrier_wait_ns, async wave pickups
// into engine.ready_wait_ns. Nothing is counted twice or left out.
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
    EXPECT_EQ(sync_ns, metricTotal(stats, "cluster.barrier_wait_ns") +
                           metricTotal(stats, "engine.ready_wait_ns"))
        << (schedule == Schedule::kBsp ? "bsp" : "async");
    EXPECT_GT(metricTotal(stats, "cluster.rounds"), 0);
  }
}

// Async × fault recovery: a worker killed mid-compute and a dropped
// delivery batch must both recover to the fault-free BSP digest.
TEST(AsyncSchedule, RecoversFromKillAtComputeToBspDigest) {
  auto tmpl = smallRoad(8, 8);
  PartitionedGraph pg = partitionGraph(tmpl, kPartitions);
  TimeSeriesCollection coll = roadCollection(tmpl, kTimesteps);
  const std::size_t latency = tmpl->edgeSchema().requireIndex("latency");

  auto& injector = fault::FaultInjector::global();
  injector.disarm();
  const auto baseline =
      runTdspWith(Schedule::kBsp, nullptr, pg, coll, latency);

  fault::FaultSpec kill;
  kill.site = fault::Site::kCompute;
  kill.action = fault::Action::kKill;
  kill.partition = 1;
  kill.timestep = 1;
  MemoryCheckpointStore store;
  injector.arm({kill}, 7);
  const auto faulted =
      runTdspWith(Schedule::kAsync, &store, pg, coll, latency);
  injector.disarm();
  EXPECT_GE(faulted.recoveries, 1);
  EXPECT_EQ(faulted.digest, baseline.digest);
}

TEST(AsyncSchedule, RecoversFromDroppedDeliveryToBspDigest) {
  auto tmpl = smallRoad(8, 8);
  PartitionedGraph pg = partitionGraph(tmpl, kPartitions);
  TimeSeriesCollection coll = roadCollection(tmpl, kTimesteps);
  const std::size_t latency = tmpl->edgeSchema().requireIndex("latency");

  auto& injector = fault::FaultInjector::global();
  injector.disarm();
  const auto baseline =
      runTdspWith(Schedule::kBsp, nullptr, pg, coll, latency);

  fault::FaultSpec drop;
  drop.site = fault::Site::kDeliver;
  drop.action = fault::Action::kDrop;
  drop.timestep = 1;
  MemoryCheckpointStore store;
  injector.arm({drop}, 7);
  const auto faulted =
      runTdspWith(Schedule::kAsync, &store, pg, coll, latency);
  injector.disarm();
  EXPECT_GE(faulted.recoveries, 1);
  EXPECT_EQ(faulted.digest, baseline.digest);
}

}  // namespace
}  // namespace tsg
