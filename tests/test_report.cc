#include "metrics/report.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "gofs/instance_provider.h"
#include "test_util.h"

namespace tsg {
namespace {

RunStats sampleStats() {
  RunStats stats(2);
  SuperstepRecord rec;
  rec.timestep = 0;
  rec.superstep = 0;
  rec.parts.resize(2);
  rec.parts[0].compute_ns = 4'000'000;
  rec.parts[0].sync_ns = 1'000'000;
  rec.parts[1].compute_ns = 2'000'000;
  rec.parts[1].send_ns = 500'000;
  rec.delivered_messages = 3;
  rec.delivered_bytes = 96;
  rec.cross_partition_messages = 2;
  rec.cross_partition_bytes = 64;
  stats.addSuperstep(rec);
  rec.timestep = 1;
  stats.addSuperstep(rec);
  stats.addCounter("finalized", 0, 0, 10);
  stats.addCounter("finalized", 1, 1, 4);
  stats.setWallClockNs(12'000'000);
  stats.setMetrics({{"bus.messages_delivered", MetricsRegistry::kNoPartition,
                     false, 6},
                    {"gofs.packs_loaded", 0, false, 1}});
  return stats;
}

TEST(Report, TimestepSeriesListsEachExecutedTimestep) {
  const auto text = renderTimestepSeries(sampleStats(), "demo");
  EXPECT_NE(text.find("per-timestep time: demo"), std::string::npos);
  EXPECT_NE(text.find("| 0"), std::string::npos);
  EXPECT_NE(text.find("| 1"), std::string::npos);
}

TEST(Report, CounterSeriesRendersPerPartitionColumnsAndTotals) {
  const auto text =
      renderCounterSeries(sampleStats(), "finalized", "demo");
  EXPECT_NE(text.find("part0"), std::string::npos);
  EXPECT_NE(text.find("part1"), std::string::npos);
  EXPECT_NE(text.find("| 10"), std::string::npos);  // t0 p0
  EXPECT_NE(text.find("| 4"), std::string::npos);   // t1 p1
}

TEST(Report, CounterSeriesHandlesMissingCounter) {
  const auto text = renderCounterSeries(sampleStats(), "ghost", "demo");
  EXPECT_NE(text.find("(no data)"), std::string::npos);
}

TEST(Report, UtilizationPercentagesSumNearHundred) {
  const auto text = renderUtilization(sampleStats(), "demo");
  EXPECT_NE(text.find("compute"), std::string::npos);
  EXPECT_NE(text.find("sync_oh"), std::string::npos);
  // Partition 0: 4ms compute of 5ms total = 80%.
  EXPECT_NE(text.find("80.0%"), std::string::npos);
}

TEST(Report, SummaryIncludesWallAndModelled) {
  const auto text = summarizeRun(sampleStats(), "demo");
  EXPECT_NE(text.find("demo:"), std::string::npos);
  EXPECT_NE(text.find("wall=0.012s"), std::string::npos);
  EXPECT_NE(text.find("supersteps=2"), std::string::npos);
  EXPECT_NE(text.find("messages=6"), std::string::npos);
}

TEST(Report, SummaryIncludesCrossPartitionTotals) {
  const auto text = summarizeRun(sampleStats(), "demo");
  // Two records, each 2 messages / 64 bytes across partitions.
  EXPECT_NE(text.find("xpart_messages=4"), std::string::npos);
  EXPECT_NE(text.find("xpart_bytes=128"), std::string::npos);
}

TEST(Report, EmptyStatsDoNotCrash) {
  RunStats stats(0);
  EXPECT_FALSE(renderTimestepSeries(stats, "x").empty());
  EXPECT_FALSE(renderUtilization(stats, "x").empty());
  EXPECT_FALSE(summarizeRun(stats, "x").empty());
  EXPECT_TRUE(testing::isValidJson(runStatsToJson(stats, "x")));
}

TEST(Report, RunStatsJsonIsValidAndCoversEverySection) {
  const auto json = runStatsToJson(sampleStats(), "demo");
  EXPECT_TRUE(testing::isValidJson(json)) << json;
  for (const char* needle :
       {"\"label\":\"demo\"", "\"num_partitions\":2", "\"totals\"",
        "\"delivered_messages\":6", "\"cross_partition_messages\":4",
        "\"timesteps\"", "\"utilization\"", "\"supersteps\"",
        "\"counters\"", "\"finalized\"", "\"metrics\"",
        "\"bus.messages_delivered\"", "\"gofs.packs_loaded\"",
        "\"partition\":0"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

// End-to-end: a real engine run exports JSON whose totals agree with the
// RunStats the engine built, including the MetricsRegistry delta.
TEST(Report, JsonRoundTripsAgainstEngineRun) {
  auto tmpl = testing::smallRoad(4, 4);
  auto pg = testing::partitionGraph(tmpl, 2);
  TimeSeriesCollection collection(tmpl, /*t0=*/0, /*delta=*/5);
  for (int t = 0; t < 3; ++t) {
    collection.appendInstance();
  }
  DirectInstanceProvider provider(pg, collection);

  struct PingProgram final : TiBspProgram {
    void compute(SubgraphContext& ctx) override {
      if (ctx.superstep() == 0) {
        // One remote-bound message per subgraph keeps the bus busy.
        ctx.sendToSubgraph(
            (ctx.subgraphId() + 1) % ctx.partitionedGraph().numSubgraphs(),
            {1});
      }
      ctx.voteToHalt();
    }
    void endOfTimestep(SubgraphContext&) override {}
    void merge(SubgraphContext&) override {}
  };

  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  TiBspEngine engine(pg, provider);
  const auto result = engine.run(
      [](PartitionId) { return std::make_unique<PingProgram>(); }, config);
  const auto json = runStatsToJson(result.stats, "engine");
  EXPECT_TRUE(testing::isValidJson(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"label\":\"engine\""), std::string::npos);
  EXPECT_NE(
      json.find("\"supersteps\":" +
                std::to_string(result.stats.totalSupersteps())),
      std::string::npos);
  EXPECT_NE(json.find("\"delivered_messages\":" +
                      std::to_string(result.stats.totalMessages())),
            std::string::npos);
  // The engine attached a registry delta with the bus feed in it.
  EXPECT_FALSE(result.stats.metrics().empty());
  EXPECT_NE(json.find("\"bus.messages_delivered\""), std::string::npos);
  EXPECT_NE(json.find("\"engine.supersteps\""), std::string::npos);

  // The measured wait blame survives the reload, part by part and summed.
  const auto loaded = testing::unwrap(runStatsFromJson(json));
  const auto& before = result.stats.supersteps();
  const auto& after = loaded.stats.supersteps();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t r = 0; r < before.size(); ++r) {
    ASSERT_EQ(after[r].parts.size(), before[r].parts.size());
    for (std::size_t p = 0; p < before[r].parts.size(); ++p) {
      EXPECT_EQ(after[r].parts[p].wait_caused_ns,
                before[r].parts[p].wait_caused_ns);
      EXPECT_EQ(after[r].parts[p].stolen, before[r].parts[p].stolen);
    }
  }
  const auto util_before = result.stats.partitionUtilization();
  const auto util_after = loaded.stats.partitionUtilization();
  ASSERT_EQ(util_after.size(), util_before.size());
  std::int64_t caused_ns = 0;
  for (std::size_t p = 0; p < util_before.size(); ++p) {
    EXPECT_EQ(util_after[p].wait_caused_ns, util_before[p].wait_caused_ns);
    EXPECT_EQ(util_after[p].stolen, util_before[p].stolen);
    caused_ns += util_before[p].wait_caused_ns;
  }
  EXPECT_EQ(caused_ns, testing::meteredWaitNs(result.stats));
}

// Full round-trip through runStatsFromJson, including the PR-6 scheduler
// counters and histogram quantiles the loader previously dropped.
TEST(Report, RunStatsJsonRoundTripPreservesMetricsAndHistograms) {
  RunStats stats = sampleStats();
  stats.setMetrics({{"cluster.barrier_skips", MetricsRegistry::kNoPartition,
                     false, 12},
                    {"cluster.barrier_wait_ns",
                     MetricsRegistry::kNoPartition, false, 5'000'000},
                    {"cluster.steals", MetricsRegistry::kNoPartition, false,
                     3},
                    {"cluster.waves", MetricsRegistry::kNoPartition, false,
                     9},
                    {"cluster.worker_queue_depth", 1, true, 4},
                    {"engine.ready_wait_ns", MetricsRegistry::kNoPartition,
                     false, 777}});

  MetricsRegistry::HistogramSnapshot compute;
  compute.name = "engine.superstep_compute_ns";
  compute.buckets[3] = 5;
  compute.buckets[10] = 5;
  compute.count = 10;
  compute.sum = 12'345;
  compute.max = 1024;
  MetricsRegistry::HistogramSnapshot batch;
  batch.name = "bus.batch_messages";
  batch.partition = 1;
  batch.buckets[2] = 1;
  batch.count = 1;
  batch.sum = 3;
  batch.max = 3;
  stats.setHistograms({compute, batch});

  const auto json = runStatsToJson(stats, "roundtrip");
  ASSERT_TRUE(testing::isValidJson(json));
  auto loaded = runStatsFromJson(json);
  ASSERT_TRUE(loaded.isOk()) << loaded.status().toString();
  const RunStats& got = loaded.value().stats;

  EXPECT_EQ(loaded.value().label, "roundtrip");
  EXPECT_EQ(got.wallClockNs(), stats.wallClockNs());
  EXPECT_EQ(got.totalSupersteps(), stats.totalSupersteps());
  EXPECT_EQ(got.totalMessages(), stats.totalMessages());
  EXPECT_EQ(got.metrics(), stats.metrics());

  ASSERT_EQ(got.histograms().size(), 2u);
  // Point::operator== covers name/partition; HistogramSnapshot's default
  // equality covers buckets too, so quantiles answer identically.
  EXPECT_EQ(got.histograms()[0], stats.histograms()[0]);
  EXPECT_EQ(got.histograms()[1], stats.histograms()[1]);
  EXPECT_EQ(got.histograms()[0].quantile(0.5),
            stats.histograms()[0].quantile(0.5));
  EXPECT_EQ(got.histograms()[0].quantile(0.99),
            stats.histograms()[0].quantile(0.99));
}

// An attribution block of another schema version leaves the rest of the
// document readable; only its reader sees the error, naming the version.
TEST(Report, RunStatsJsonKeepsTheRunWhenOnlyItsAttributionIsForeign) {
  const std::string base =
      "{\"schema_version\":" + std::to_string(kRunStatsSchemaVersion) +
      ",\"label\":\"old\",\"num_partitions\":1,\"supersteps\":[]";
  auto plain = runStatsFromJson(base + "}");
  ASSERT_TRUE(plain.isOk()) << plain.status().toString();
  EXPECT_TRUE(plain.value().attribution_status.isOk());

  auto foreign =
      runStatsFromJson(base + ",\"attribution\":{\"schema_version\":2}}");
  ASSERT_TRUE(foreign.isOk()) << foreign.status().toString();
  EXPECT_EQ(foreign.value().label, "old");
  EXPECT_FALSE(foreign.value().stats.hasAttribution());
  const Status& why = foreign.value().attribution_status;
  EXPECT_EQ(why.code(), ErrorCode::kCorruptData);
  EXPECT_NE(why.message().find("schema_version 2"), std::string::npos)
      << why.toString();
}

TEST(Report, RunStatsJsonRejectsMalformedHistogramBuckets) {
  // Bucket entries must be [index, count] pairs with the index in range.
  const std::string base =
      "{\"schema_version\":" + std::to_string(kRunStatsSchemaVersion) +
      ",\"num_partitions\":1,\"supersteps\":[],"
      "\"histograms\":[{\"name\":\"h.x\",\"count\":1,\"sum\":1,\"max\":1,"
      "\"buckets\":";
  EXPECT_FALSE(runStatsFromJson(base + "[[0]]}]}").isOk());
  EXPECT_FALSE(runStatsFromJson(base + "[[9999,1]]}]}").isOk());
  EXPECT_TRUE(runStatsFromJson(base + "[[2,1]]}]}").isOk());
}

}  // namespace
}  // namespace tsg
