#include "metrics/stats.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace tsg {
namespace {

SuperstepRecord makeRecord(Timestep t, std::int32_t s,
                           std::vector<std::int64_t> busy_ns) {
  SuperstepRecord rec;
  rec.timestep = t;
  rec.superstep = s;
  for (const auto busy : busy_ns) {
    PartitionSuperstepStats ps;
    ps.compute_ns = busy;
    rec.parts.push_back(ps);
  }
  return rec;
}

TEST(RunStats, CountersAccumulatePerTimestepAndPartition) {
  RunStats stats(3);
  stats.addCounter("finalized", 0, 1, 10);
  stats.addCounter("finalized", 0, 1, 5);
  stats.addCounter("finalized", 2, 0, 7);
  const auto& rows = stats.counters().at("finalized");
  ASSERT_EQ(rows.size(), 3u);  // sized to max timestep + 1
  EXPECT_EQ(rows[0][1], 15u);
  EXPECT_EQ(rows[2][0], 7u);
  EXPECT_EQ(rows[1][2], 0u);
  EXPECT_EQ(stats.counterTotal("finalized"), 22u);
  EXPECT_EQ(stats.counterTotal("missing"), 0u);
}

TEST(RunStats, NumTimestepsFromRecords) {
  RunStats stats(2);
  EXPECT_EQ(stats.numTimesteps(), 0);
  stats.addSuperstep(makeRecord(0, 0, {1, 1}));
  stats.addSuperstep(makeRecord(4, 0, {1, 1}));
  EXPECT_EQ(stats.numTimesteps(), 5);
}

// An eventually dependent run stamps its merge records one past the last
// timestep; they are not a timestep.
TEST(RunStats, NumTimestepsSkipsMergeRecords) {
  RunStats stats(2);
  for (Timestep t = 0; t < 6; ++t) {
    stats.addSuperstep(makeRecord(t, 0, {1, 1}));
  }
  auto merge = makeRecord(6, 0, {1, 1});
  merge.is_merge_phase = true;
  stats.addSuperstep(std::move(merge));
  EXPECT_EQ(stats.numTimesteps(), 6);
}

TEST(RunStats, ModelledParallelTimeIsCriticalPath) {
  RunStats stats(2);
  // Superstep 1: partitions busy 10 and 30 -> max 30.
  stats.addSuperstep(makeRecord(0, 0, {10, 30}));
  // Superstep 2: 20 and 5 -> max 20.
  stats.addSuperstep(makeRecord(0, 1, {20, 5}));
  NetworkModel net;
  net.per_superstep_barrier_ns = 0;
  net.per_message_ns = 0;
  EXPECT_EQ(stats.modelledParallelNs(net), 50);
}

TEST(RunStats, ModelledTimeIncludesCommunication) {
  RunStats stats(1);
  auto rec = makeRecord(0, 0, {100});
  rec.cross_partition_bytes = 125;  // 1 microsecond at 125 MB/s
  rec.cross_partition_messages = 2;
  stats.addSuperstep(std::move(rec));
  NetworkModel net;
  net.bandwidth_bytes_per_sec = 125e6;
  net.per_message_ns = 10;
  net.per_superstep_barrier_ns = 7;
  // 100 busy + 1000 bandwidth + 20 per-message + 7 barrier.
  EXPECT_EQ(stats.modelledParallelNs(net), 1127);
}

TEST(RunStats, ModelledTimestepExcludesMergeRecords) {
  RunStats stats(1);
  stats.addSuperstep(makeRecord(1, 0, {40}));
  auto merge = makeRecord(1, 1, {99});
  merge.is_merge_phase = true;
  stats.addSuperstep(std::move(merge));
  NetworkModel net;
  net.per_superstep_barrier_ns = 0;
  net.per_message_ns = 0;
  EXPECT_EQ(stats.modelledTimestepNs(1, net), 40);
}

TEST(RunStats, UtilizationSumsAcrossRecords) {
  RunStats stats(2);
  auto rec1 = makeRecord(0, 0, {10, 20});
  rec1.parts[0].send_ns = 3;
  rec1.parts[0].sync_ns = 2;
  rec1.parts[1].load_ns = 4;
  stats.addSuperstep(std::move(rec1));
  auto rec2 = makeRecord(1, 0, {5, 5});
  stats.addSuperstep(std::move(rec2));

  const auto util = stats.partitionUtilization();
  ASSERT_EQ(util.size(), 2u);
  EXPECT_EQ(util[0].compute_ns, 15);
  EXPECT_EQ(util[0].send_ns, 3);
  EXPECT_EQ(util[0].sync_ns, 2);
  EXPECT_EQ(util[1].compute_ns, 25);
  EXPECT_EQ(util[1].load_ns, 4);
  EXPECT_EQ(util[0].totalNs(), 20);
  EXPECT_NEAR(util[0].computeFraction(), 0.75, 1e-9);
}

TEST(RunStats, TotalsAggregateDeliveries) {
  RunStats stats(1);
  auto rec = makeRecord(0, 0, {1});
  rec.delivered_messages = 10;
  rec.delivered_bytes = 100;
  stats.addSuperstep(std::move(rec));
  auto rec2 = makeRecord(0, 1, {1});
  rec2.delivered_messages = 5;
  rec2.delivered_bytes = 50;
  stats.addSuperstep(std::move(rec2));
  EXPECT_EQ(stats.totalMessages(), 15u);
  EXPECT_EQ(stats.totalBytes(), 150u);
  EXPECT_EQ(stats.totalSupersteps(), 2u);
}

TEST(RunStats, ModelledTimesAreZeroWithoutRecords) {
  const RunStats stats(4);
  EXPECT_EQ(stats.modelledParallelNs(), 0);
  EXPECT_EQ(stats.modelledTimestepNs(0), 0);
  EXPECT_EQ(stats.modelledTimestepNs(99), 0);
  EXPECT_EQ(stats.numTimesteps(), 0);
}

TEST(RunStats, ModelledTimeWithZeroPartitions) {
  RunStats stats(0);
  stats.addSuperstep(makeRecord(0, 0, {}));  // a record with no partitions
  NetworkModel net;
  net.per_superstep_barrier_ns = 7;
  net.per_message_ns = 0;
  // No partitions means no busy time; only the barrier cost remains.
  EXPECT_EQ(stats.modelledParallelNs(net), 7);
  EXPECT_EQ(stats.modelledTimestepNs(0, net), 7);
}

TEST(RunStats, ModelledTimeSinglePartitionSumsBusyComponents) {
  RunStats stats(1);
  auto rec = makeRecord(0, 0, {10});
  rec.parts[0].send_ns = 5;
  rec.parts[0].load_ns = 2;
  rec.parts[0].sync_ns = 99;  // barrier wait is never busy time
  stats.addSuperstep(std::move(rec));
  NetworkModel net;
  net.per_superstep_barrier_ns = 0;
  net.per_message_ns = 0;
  EXPECT_EQ(stats.modelledParallelNs(net), 17);
}

TEST(RunStats, StragglerFixtureMatchesHandComputation) {
  // The fixture's comment in test_util.h derives these numbers by hand.
  const RunStats stats = testing::stragglerFixtureStats();
  const NetworkModel net = testing::fixtureNetworkModel();
  EXPECT_EQ(stats.modelledParallelNs(net), 5450);
  EXPECT_EQ(stats.modelledTimestepNs(0, net), 3950);  // 2550 + 1400
  EXPECT_EQ(stats.modelledTimestepNs(1, net), 1500);
}

TEST(RunStats, CounterBadPartitionAborts) {
  RunStats stats(2);
  EXPECT_DEATH(stats.addCounter("x", 0, 5, 1), "TSG_CHECK");
}

}  // namespace
}  // namespace tsg
