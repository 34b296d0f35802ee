#include "runtime/cluster.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "runtime/fault_injector.h"

namespace tsg {
namespace {

TEST(Cluster, RunsJobOnEveryPartitionExactlyOnce) {
  Cluster cluster(4);
  std::vector<std::atomic<int>> hits(4);
  cluster.run([&](PartitionId p) { hits[p].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(Cluster, RepeatedRoundsReuseWorkers) {
  Cluster cluster(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 100; ++round) {
    cluster.run([&](PartitionId) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 300);
}

TEST(Cluster, TimingsMeasureBusyAndSync) {
  Cluster cluster(2);
  // Busy time is per-thread CPU time, so the slow partition must burn CPU
  // (a sleep would register ~0 busy). It spins until its own CPU clock has
  // advanced 20ms: a wall-clock deadline would burn less CPU whenever the
  // host is oversubscribed (as under a parallel ctest).
  const auto& timings = cluster.run([](PartitionId p) {
    if (p == 0) {
      volatile std::uint64_t sink = 0;
      const std::int64_t start = threadCpuNowNs();
      while (threadCpuNowNs() - start < 20'000'000) {
        sink = sink + 1;
      }
    }
  });
  ASSERT_EQ(timings.size(), 2u);
  // Partition 0 burned ~20ms of CPU; partition 1 waited at the barrier.
  EXPECT_GT(timings[0].busy_ns, 5'000'000);
  // The fast worker's busy time is far below the slow worker's.
  EXPECT_LT(timings[1].busy_ns, timings[0].busy_ns);
  // The slowest worker has less sync wait than the fast one.
  EXPECT_LT(timings[0].sync_ns, timings[1].sync_ns);
}

TEST(Cluster, PartitionIdsAreStableAcrossRounds) {
  Cluster cluster(3);
  std::vector<std::thread::id> first(3);
  cluster.run([&](PartitionId p) { first[p] = std::this_thread::get_id(); });
  std::vector<std::thread::id> second(3);
  cluster.run([&](PartitionId p) { second[p] = std::this_thread::get_id(); });
  // Dedicated worker per partition: same thread serves the same partition.
  EXPECT_EQ(first, second);
}

TEST(Cluster, SinglePartitionWorks) {
  Cluster cluster(1);
  int value = 0;
  cluster.run([&](PartitionId p) {
    EXPECT_EQ(p, 0u);
    value = 42;
  });
  EXPECT_EQ(value, 42);
}

TEST(Cluster, ManyPartitionsOnFewCores) {
  // Partitions may exceed hardware threads (this host has 1 core).
  Cluster cluster(9);
  std::atomic<int> total{0};
  cluster.run([&](PartitionId) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 9);
}

// A job that kills its worker still completes the round (the barrier never
// hangs), then run() unwinds into recovery. Mirrors the engine's rollback:
// respawn the dead worker and the next round runs everywhere, with no stale
// death record left to fail it.
TEST(Cluster, RoundFaultThrowsRecoveryNeededAndRespawnsCleanly) {
  Cluster cluster(3);
  std::vector<std::atomic<int>> hits(3);
  const auto kill_p1 = [&](PartitionId p) {
    if (p == 1) {
      throw fault::WorkerFault(p, /*timestep=*/0, fault::Site::kCompute);
    }
    hits[p].fetch_add(1);
  };
  EXPECT_THROW(cluster.run(kill_p1), fault::RecoveryNeeded);
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[2].load(), 1);
  EXPECT_EQ(cluster.aliveWorkers(), 2u);
  EXPECT_EQ(cluster.respawnDead(), 1u);
  EXPECT_EQ(cluster.aliveWorkers(), 3u);

  cluster.run([&](PartitionId p) { hits[p].fetch_add(1); });
  EXPECT_EQ(hits[0].load(), 2);
  EXPECT_EQ(hits[1].load(), 1);
  EXPECT_EQ(hits[2].load(), 2);
  EXPECT_EQ(cluster.respawnDead(), 0u);
}

}  // namespace
}  // namespace tsg
