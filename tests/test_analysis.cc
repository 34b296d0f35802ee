#include "metrics/analysis.h"

#include <gtest/gtest.h>

#include <string>

#include "algorithms/tdsp.h"
#include "common/json.h"
#include "gofs/instance_provider.h"
#include "metrics/report.h"
#include "metrics/stats.h"
#include "test_util.h"

namespace tsg {
namespace {

// --- Critical-path decomposition ----------------------------------------

TEST(Analysis, ReconcilesWithModelledParallelTime) {
  const RunStats stats = testing::stragglerFixtureStats();
  const NetworkModel net = testing::fixtureNetworkModel();
  const auto analysis = analyzeCriticalPath(stats, net);
  // The decomposition's invariant: busy + comm + barriers is exactly the
  // modelled parallel time RunStats reports.
  EXPECT_EQ(analysis.modelled_parallel_ns, stats.modelledParallelNs(net));
  EXPECT_EQ(analysis.critical_path_busy_ns + analysis.comm_ns +
                analysis.barrier_ns,
            analysis.modelled_parallel_ns);
}

// The same identity must hold for records produced by the dependency-
// driven scheduler (`--schedule=async`), whose supersteps interleave across
// timesteps — not just the barrier-aligned BSP records the fixture models.
TEST(Analysis, ReconcilesUnderAsyncScheduleRecords) {
  auto tmpl = testing::smallRoad(8, 8);
  auto pg = testing::partitionGraph(tmpl, 3);
  auto coll = testing::roadCollection(tmpl, 5);
  DirectInstanceProvider provider(pg, coll);
  TdspOptions options;
  options.latency_attr = tmpl->edgeSchema().requireIndex("latency");
  options.schedule = Schedule::kAsync;
  const auto run = runTdsp(pg, provider, options);
  ASSERT_FALSE(run.exec.stats.supersteps().empty());

  const NetworkModel net = testing::fixtureNetworkModel();
  const auto analysis = analyzeCriticalPath(run.exec.stats, net);
  EXPECT_EQ(analysis.modelled_parallel_ns,
            run.exec.stats.modelledParallelNs(net));
  EXPECT_EQ(analysis.critical_path_busy_ns + analysis.comm_ns +
                analysis.barrier_ns,
            analysis.modelled_parallel_ns);
  EXPECT_GT(analysis.critical_path_busy_ns, 0);
}

TEST(Analysis, HandComputedFixtureDecomposition) {
  const auto analysis = analyzeCriticalPath(testing::stragglerFixtureStats(),
                                            testing::fixtureNetworkModel());
  EXPECT_EQ(analysis.critical_path_busy_ns, 1250);
  EXPECT_EQ(analysis.total_busy_ns, 1520);
  EXPECT_EQ(analysis.comm_ns, 1200);
  EXPECT_EQ(analysis.barrier_ns, 3000);
  EXPECT_EQ(analysis.modelled_parallel_ns, 5450);
  EXPECT_EQ(analysis.total_barrier_wait_ns, 980);
  EXPECT_NEAR(analysis.skew_index, 1250.0 / 760.0, 1e-9);

  ASSERT_EQ(analysis.path.size(), 3u);
  EXPECT_EQ(analysis.path[0].straggler, 1);
  EXPECT_EQ(analysis.path[0].max_busy_ns, 350);
  EXPECT_EQ(analysis.path[0].barrier_wait_ns, 230);
  EXPECT_EQ(analysis.path[0].comm_ns, 1200);
  EXPECT_EQ(analysis.path[1].straggler, 1);
  EXPECT_EQ(analysis.path[1].barrier_wait_ns, 350);
  EXPECT_EQ(analysis.path[2].straggler, 0);
  EXPECT_EQ(analysis.path[2].barrier_wait_ns, 400);

  ASSERT_EQ(analysis.partitions.size(), 2u);
  EXPECT_EQ(analysis.partitions[0].straggler_supersteps, 1u);
  EXPECT_EQ(analysis.partitions[0].blamed_wait_ns, 400);
  EXPECT_EQ(analysis.partitions[0].busy_ns, 670);
  EXPECT_EQ(analysis.partitions[1].straggler_supersteps, 2u);
  EXPECT_EQ(analysis.partitions[1].blamed_wait_ns, 580);
  EXPECT_EQ(analysis.partitions[1].busy_ns, 850);

  EXPECT_EQ(analysis.dominant_straggler, 1);
  EXPECT_NEAR(analysis.dominant_wait_fraction, 580.0 / 980.0, 1e-9);

  ASSERT_EQ(analysis.straggler_by_timestep.size(), 2u);
  EXPECT_EQ(analysis.straggler_by_timestep[0][0], 0u);
  EXPECT_EQ(analysis.straggler_by_timestep[0][1], 2u);
  EXPECT_EQ(analysis.straggler_by_timestep[1][0], 1u);
  EXPECT_EQ(analysis.straggler_by_timestep[1][1], 0u);
}

TEST(Analysis, DelayedPartitionIsDominantStraggler) {
  // Synthetic run with one delayed partition: p2 is slower in every
  // superstep, so it must own well over half the barrier-wait blame.
  RunStats stats(3);
  for (std::int32_t s = 0; s < 4; ++s) {
    SuperstepRecord rec;
    rec.timestep = s / 2;
    rec.superstep = s % 2;
    rec.parts.resize(3);
    rec.parts[0].compute_ns = 100;
    rec.parts[1].compute_ns = 120;
    rec.parts[2].compute_ns = 500;  // the delayed partition
    stats.addSuperstep(std::move(rec));
  }
  const auto analysis = analyzeCriticalPath(stats);
  EXPECT_EQ(analysis.dominant_straggler, 2);
  EXPECT_GE(analysis.dominant_wait_fraction, 0.5);
  EXPECT_EQ(analysis.partitions[2].straggler_supersteps, 4u);

  const std::string report = renderCriticalPath(analysis, "delayed");
  EXPECT_NE(report.find("dominant straggler: partition 2"),
            std::string::npos);
  EXPECT_NE(report.find("skew index"), std::string::npos);
}

TEST(Analysis, EmptyRunYieldsNeutralAnalysis) {
  const auto analysis = analyzeCriticalPath(RunStats(0));
  EXPECT_TRUE(analysis.path.empty());
  EXPECT_TRUE(analysis.partitions.empty());
  EXPECT_EQ(analysis.modelled_parallel_ns, 0);
  EXPECT_EQ(analysis.skew_index, 1.0);
  EXPECT_EQ(analysis.dominant_straggler, -1);
  EXPECT_EQ(analysis.dominant_wait_fraction, 0.0);
  // Rendering an empty analysis must not crash.
  EXPECT_FALSE(renderCriticalPath(analysis, "empty").empty());
}

TEST(Analysis, RecordWithNoPartitionsHasNoStraggler) {
  RunStats stats(0);
  stats.addSuperstep(SuperstepRecord{});
  NetworkModel net;
  net.per_superstep_barrier_ns = 5;
  net.per_message_ns = 0;
  const auto analysis = analyzeCriticalPath(stats, net);
  ASSERT_EQ(analysis.path.size(), 1u);
  EXPECT_EQ(analysis.path[0].straggler, -1);
  EXPECT_EQ(analysis.path[0].barrier_wait_ns, 0);
  EXPECT_EQ(analysis.modelled_parallel_ns, 5);
  EXPECT_EQ(analysis.modelled_parallel_ns, stats.modelledParallelNs(net));
}

TEST(Analysis, SinglePartitionHasNoBarrierWait) {
  RunStats stats(1);
  SuperstepRecord rec;
  rec.parts.resize(1);
  rec.parts[0].compute_ns = 10;
  rec.parts[0].send_ns = 5;
  rec.parts[0].load_ns = 2;
  stats.addSuperstep(std::move(rec));
  NetworkModel net;
  net.per_superstep_barrier_ns = 0;
  net.per_message_ns = 0;
  const auto analysis = analyzeCriticalPath(stats, net);
  EXPECT_EQ(analysis.total_barrier_wait_ns, 0);
  EXPECT_EQ(analysis.critical_path_busy_ns, 17);
  EXPECT_NEAR(analysis.skew_index, 1.0, 1e-12);
  EXPECT_EQ(analysis.modelled_parallel_ns, stats.modelledParallelNs(net));
}

// --- runStatsToJson round trip ------------------------------------------

TEST(Analysis, RunStatsJsonRoundTrip) {
  RunStats stats = testing::stragglerFixtureStats();
  stats.setWallClockNs(123456);
  stats.addCounter("finalized", 0, 1, 7);
  const std::string json = runStatsToJson(stats, "fixture");
  ASSERT_TRUE(testing::isValidJson(json));
  EXPECT_NE(json.find("\"schema_version\":"), std::string::npos);

  const auto loaded = testing::unwrap(runStatsFromJson(json));
  EXPECT_EQ(loaded.label, "fixture");
  EXPECT_EQ(loaded.stats.numPartitions(), 2u);
  EXPECT_EQ(loaded.stats.wallClockNs(), 123456);
  EXPECT_EQ(loaded.stats.totalSupersteps(), 3u);
  EXPECT_EQ(loaded.stats.totalMessages(), stats.totalMessages());
  EXPECT_EQ(loaded.stats.totalBytes(), stats.totalBytes());
  EXPECT_EQ(loaded.stats.totalCrossPartitionMessages(),
            stats.totalCrossPartitionMessages());
  EXPECT_EQ(loaded.stats.totalCrossPartitionBytes(),
            stats.totalCrossPartitionBytes());
  EXPECT_EQ(loaded.stats.counterTotal("finalized"), 7u);
  // The reloaded records reproduce the modelled time under the same
  // (default) network model.
  EXPECT_EQ(loaded.stats.modelledParallelNs(), stats.modelledParallelNs());
  // The analyzer works on a reloaded run exactly as on the original.
  const NetworkModel net = testing::fixtureNetworkModel();
  EXPECT_EQ(analyzeCriticalPath(loaded.stats, net).total_barrier_wait_ns,
            analyzeCriticalPath(stats, net).total_barrier_wait_ns);
}

TEST(Analysis, RejectsMissingSchemaVersion) {
  const auto result =
      runStatsFromJson("{\"label\":\"x\",\"supersteps\":[]}");
  ASSERT_FALSE(result.isOk());
  EXPECT_NE(result.status().toString().find("schema_version"),
            std::string::npos);
}

TEST(Analysis, RejectsUnsupportedSchemaVersion) {
  const auto result =
      runStatsFromJson("{\"schema_version\":99,\"supersteps\":[]}");
  ASSERT_FALSE(result.isOk());
  EXPECT_NE(result.status().toString().find("99"), std::string::npos);
}

TEST(Analysis, RejectsMalformedJson) {
  EXPECT_FALSE(runStatsFromJson("").isOk());
  EXPECT_FALSE(runStatsFromJson("{\"schema_version\":1,").isOk());
  EXPECT_FALSE(runStatsFromJson("[1,2,3]").isOk());  // not an object
  // Version is right but the records are missing.
  EXPECT_FALSE(runStatsFromJson("{\"schema_version\":1}").isOk());
}

// --- JsonValue parser ----------------------------------------------------

TEST(JsonValue, ParsesScalarsAndContainers) {
  const auto v = testing::unwrap(JsonValue::parse(
      " {\"a\": [1, 2.5, -3], \"s\": \"x\\n\\u0041\", \"b\": true,"
      " \"n\": null} "));
  ASSERT_TRUE(v.isObject());
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->isArray());
  ASSERT_EQ(a->array().size(), 3u);
  EXPECT_EQ(a->array()[0].intValue(), 1);
  EXPECT_NEAR(a->array()[1].doubleValue(), 2.5, 1e-12);
  EXPECT_EQ(a->array()[2].intValue(), -3);
  EXPECT_EQ(v.stringOr("s", ""), "x\nA");
  const JsonValue* b = v.find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->boolValue());
  const JsonValue* n = v.find("n");
  ASSERT_NE(n, nullptr);
  EXPECT_TRUE(n->isNull());
  EXPECT_EQ(v.intOr("missing", 42), 42);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonValue, ParsesNestedDocuments) {
  const auto v = testing::unwrap(
      JsonValue::parse("{\"outer\": {\"inner\": [[], {}, [0]]}}"));
  const JsonValue* outer = v.find("outer");
  ASSERT_NE(outer, nullptr);
  const JsonValue* inner = outer->find("inner");
  ASSERT_NE(inner, nullptr);
  ASSERT_EQ(inner->array().size(), 3u);
  EXPECT_TRUE(inner->array()[0].isArray());
  EXPECT_TRUE(inner->array()[1].isObject());
  EXPECT_EQ(inner->array()[2].array()[0].intValue(), 0);
}

TEST(JsonValue, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::parse("").isOk());
  EXPECT_FALSE(JsonValue::parse("{\"a\":}").isOk());
  EXPECT_FALSE(JsonValue::parse("[1,]").isOk());
  EXPECT_FALSE(JsonValue::parse("{} extra").isOk());
  EXPECT_FALSE(JsonValue::parse("\"unterminated").isOk());
  EXPECT_FALSE(JsonValue::parse("nope").isOk());
  // Errors carry the byte position of the failure.
  EXPECT_NE(JsonValue::parse("nope").status().toString().find("at byte"),
            std::string::npos);
}

TEST(JsonValue, RejectsExcessiveNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(JsonValue::parse(deep).isOk());
}

}  // namespace
}  // namespace tsg
