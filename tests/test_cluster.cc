// Barriered wave phases on Cluster — the BSP barrier every schedule runs
// its barriered phases through: owner-only tasks, a metered seal, faults
// unwinding into RecoveryNeeded.
#include "runtime/cluster.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "runtime/fault_injector.h"

namespace tsg {
namespace {

// A barriered phase of `waves` waves over every partition: each task runs
// job(p) under CPU metering, each seal keeps the barrier waits it was
// handed.
class JobDriver final : public Cluster::Driver {
 public:
  JobDriver(std::uint32_t k, std::function<void(PartitionId)> job,
            std::int32_t waves = 1)
      : job_(std::move(job)), waves_(waves), all_(k), busy_ns_(k, 0) {
    std::iota(all_.begin(), all_.end(), PartitionId{0});
  }

  void runTask(PartitionId p, const Cluster::TaskInfo& info) override {
    EXPECT_FALSE(info.stolen) << "barriered task " << p << " was stolen";
    EXPECT_EQ(info.ready_wait_ns, 0);
    const std::int64_t cpu_start = threadCpuNowNs();
    job_(p);
    busy_ns_[p] = threadCpuNowNs() - cpu_start;
  }

  std::vector<PartitionId> sealWave(const Cluster::Seal& seal) override {
    ++seals_;
    wait_ns_.assign(seal.wait_ns.begin(), seal.wait_ns.end());
    straggler_ = seal.straggler;
    return seal.wave + 1 < waves_ ? all_ : std::vector<PartitionId>{};
  }

  void run(Cluster& cluster) {
    cluster.runWaves(*this, all_, Cluster::Sync::kBarrier);
  }

  std::function<void(PartitionId)> job_;
  std::int32_t waves_;
  std::vector<PartitionId> all_;
  std::vector<std::int64_t> busy_ns_;
  std::vector<std::int64_t> wait_ns_;  // as handed to the last seal
  PartitionId straggler_ = kInvalidPartition;
  std::int32_t seals_ = 0;
};

std::uint64_t counter(const char* name) {
  return MetricsRegistry::global().counter(name).value();
}

// One barriered wave runs every partition exactly once and is one sealed
// barrier: one cluster.rounds, none of the steal-mode meters.
TEST(Cluster, RunsJobOnEveryPartitionExactlyOnce) {
  Cluster cluster(4);
  std::vector<std::atomic<int>> hits(4);
  const auto rounds_before = counter("cluster.rounds");
  const auto waves_before = counter("cluster.waves");
  const auto steals_before = counter("cluster.steals");
  const auto ready_wait_before = counter("engine.ready_wait_ns");
  JobDriver driver(4, [&](PartitionId p) { hits[p].fetch_add(1); });
  driver.run(cluster);
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
  EXPECT_EQ(driver.seals_, 1);
  EXPECT_EQ(counter("cluster.rounds") - rounds_before, 1u);
  EXPECT_EQ(counter("cluster.waves"), waves_before);
  EXPECT_EQ(counter("cluster.steals"), steals_before);
  EXPECT_EQ(counter("engine.ready_wait_ns"), ready_wait_before);
}

TEST(Cluster, RepeatedRoundsReuseWorkers) {
  Cluster cluster(3);
  std::atomic<int> total{0};
  JobDriver one_wave(3, [&](PartitionId) { total.fetch_add(1); });
  for (int phase = 0; phase < 100; ++phase) {
    one_wave.run(cluster);
  }
  EXPECT_EQ(total.load(), 300);
  // The same barriers as 100 waves sealed inside one phase.
  JobDriver hundred_waves(3, [&](PartitionId) { total.fetch_add(1); }, 100);
  hundred_waves.run(cluster);
  EXPECT_EQ(total.load(), 600);
  EXPECT_EQ(hundred_waves.seals_, 100);
}

// Dedicated worker per partition: the same thread serves the same
// partition across waves and phases, and nothing is stolen.
TEST(Cluster, PartitionIdsAreStableAcrossRounds) {
  constexpr std::uint32_t kParts = 3;
  Cluster cluster(kParts);
  std::vector<std::vector<std::thread::id>> ids(kParts);
  const auto steals_before = counter("cluster.steals");
  JobDriver driver(
      kParts,
      [&](PartitionId p) { ids[p].push_back(std::this_thread::get_id()); },
      /*waves=*/3);
  driver.run(cluster);
  driver.run(cluster);
  for (PartitionId p = 0; p < kParts; ++p) {
    ASSERT_EQ(ids[p].size(), 6u);
    for (const auto& id : ids[p]) {
      EXPECT_EQ(id, ids[p].front()) << "partition " << p << " moved thread";
    }
    for (PartitionId q = 0; q < p; ++q) {
      EXPECT_NE(ids[p].front(), ids[q].front());
    }
  }
  EXPECT_EQ(counter("cluster.steals"), steals_before);
}

TEST(Cluster, TimingsMeasureBusyAndSync) {
  Cluster cluster(2);
  const auto wait_before = counter("cluster.barrier_wait_ns");
  // Busy time is per-thread CPU time, so the slow partition must burn CPU
  // (a sleep would register ~0 busy). It spins until its own CPU clock has
  // advanced 20ms: a wall-clock deadline would burn less CPU whenever the
  // host is oversubscribed (as under a parallel ctest).
  JobDriver driver(2, [](PartitionId p) {
    if (p == 0) {
      volatile std::uint64_t sink = 0;
      const std::int64_t start = threadCpuNowNs();
      while (threadCpuNowNs() - start < 20'000'000) {
        sink = sink + 1;
      }
    }
  });
  driver.run(cluster);
  ASSERT_EQ(driver.wait_ns_.size(), 2u);
  // Partition 0 burned ~20ms of CPU; partition 1 waited at the barrier.
  EXPECT_GT(driver.busy_ns_[0], 5'000'000);
  EXPECT_LT(driver.busy_ns_[1], driver.busy_ns_[0]);
  // The straggler defines the barrier instant: it waits not at all.
  EXPECT_EQ(driver.wait_ns_[0], 0);
  EXPECT_GT(driver.wait_ns_[1], 0);
  EXPECT_EQ(driver.straggler_, 0u);
  // The seal's waits are exactly what cluster.barrier_wait_ns meters.
  EXPECT_EQ(counter("cluster.barrier_wait_ns") - wait_before,
            static_cast<std::uint64_t>(driver.wait_ns_[0] +
                                       driver.wait_ns_[1]));
}

TEST(Cluster, SinglePartitionWorks) {
  Cluster cluster(1);
  int value = 0;
  JobDriver driver(1, [&](PartitionId p) {
    EXPECT_EQ(p, 0u);
    value = 42;
  });
  driver.run(cluster);
  EXPECT_EQ(value, 42);
  EXPECT_EQ(driver.wait_ns_, std::vector<std::int64_t>{0});
}

TEST(Cluster, ManyPartitionsOnFewCores) {
  // Partitions may exceed hardware threads.
  Cluster cluster(9);
  std::atomic<int> total{0};
  JobDriver driver(9, [&](PartitionId) { total.fetch_add(1); }, 4);
  driver.run(cluster);
  EXPECT_EQ(total.load(), 36);
}

// A task that kills its worker ends the phase with RecoveryNeeded: queued
// tasks are discarded, in-flight ones drain. Mirrors the engine's rollback:
// respawn the dead worker and the next phase runs everywhere, with no
// stale death record left to fail it.
TEST(Cluster, RoundFaultThrowsRecoveryNeededAndRespawnsCleanly) {
  Cluster cluster(3);
  std::vector<std::atomic<int>> hits(3);
  std::atomic<bool> armed{true};
  const auto rounds_before = counter("cluster.rounds");
  JobDriver driver(3, [&](PartitionId p) {
    if (p == 1 && armed.exchange(false)) {
      throw fault::WorkerFault(p, /*timestep=*/0, fault::Site::kCompute);
    }
    hits[p].fetch_add(1);
  });
  EXPECT_THROW(driver.run(cluster), fault::RecoveryNeeded);
  EXPECT_EQ(driver.seals_, 0);  // an aborted wave is never sealed
  EXPECT_EQ(counter("cluster.rounds"), rounds_before);
  EXPECT_EQ(hits[1].load(), 0);
  const int hits0 = hits[0].load();
  const int hits2 = hits[2].load();
  EXPECT_LE(hits0, 1);
  EXPECT_LE(hits2, 1);
  EXPECT_EQ(cluster.aliveWorkers(), 2u);
  EXPECT_EQ(cluster.respawnDead(), 1u);
  EXPECT_EQ(cluster.aliveWorkers(), 3u);

  driver.run(cluster);
  EXPECT_EQ(hits[0].load(), hits0 + 1);
  EXPECT_EQ(hits[1].load(), 1);
  EXPECT_EQ(hits[2].load(), hits2 + 1);
  EXPECT_EQ(driver.seals_, 1);
  EXPECT_EQ(cluster.respawnDead(), 0u);
}

}  // namespace
}  // namespace tsg
