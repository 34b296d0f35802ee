// Post-run analysis over the superstep records: the measured wait blame
// `tsgcli analyze` opens with (who caused the wait, the dominant
// straggler), the RunStats JSON export it reads, and the JSON parser.
#include <gtest/gtest.h>

#include <string>

#include "algorithms/tdsp.h"
#include "common/json.h"
#include "gofs/instance_provider.h"
#include "metrics/report.h"
#include "metrics/stats.h"
#include "runtime/fault_injector.h"
#include "test_util.h"

namespace tsg {
namespace {

// --- Measured wait blame -------------------------------------------------

// The straggler fixture's records with blame booked the way the engine
// books a barriered wave (each wave's straggler is charged every other
// partition's wait), plus one merge record:
//
//   (t0,s0): p1 straggles, caused 230 us      (t0,s1): p1 caused 350 us
//   (t1,s0): p0 straggles, caused 400 us; p1's task was stolen
//   merge:   p0 caused 120 us; p1's task was stolen
//
// p0 caused 520 us, p1 580 us: 1.100 ms in all, 0.120 ms of it in merge
// records; p1 is the dominant straggler with 580 / 1100 = 52.7%.
RunStats blameFixtureStats() {
  RunStats stats(2);
  std::int32_t r = 0;
  const std::int64_t caused[3][2] = {{0, 230000}, {0, 350000}, {400000, 0}};
  const RunStats base = testing::stragglerFixtureStats();
  for (SuperstepRecord rec : base.supersteps()) {
    rec.parts[0].wait_caused_ns = caused[r][0];
    rec.parts[1].wait_caused_ns = caused[r][1];
    rec.parts[1].stolen = r == 2 ? 1 : 0;
    stats.addSuperstep(std::move(rec));
    ++r;
  }
  SuperstepRecord merge;
  merge.timestep = 2;
  merge.is_merge_phase = true;
  merge.parts.resize(2);
  merge.parts[0].wait_caused_ns = 120000;
  merge.parts[1].stolen = 1;
  stats.addSuperstep(std::move(merge));
  return stats;
}

TEST(Analysis, HandComputedFixtureDecomposition) {
  RunStats stats = blameFixtureStats();
  const auto util = stats.partitionUtilization();
  ASSERT_EQ(util.size(), 2u);
  EXPECT_EQ(util[0].wait_caused_ns, 520000);
  EXPECT_EQ(util[1].wait_caused_ns, 580000);
  EXPECT_EQ(util[0].stolen, 0u);
  EXPECT_EQ(util[1].stolen, 2u);
  // Blame is who caused the wait, not time spent: the split is unchanged.
  EXPECT_EQ(util[0].totalNs(), 670);
  EXPECT_EQ(util[1].totalNs(), 850);

  const std::string report = renderWaitBlame(stats, "fixture");
  EXPECT_NE(report.find("== measured wait blame: fixture =="),
            std::string::npos);
  EXPECT_NE(report.find("wait caused 1.100 ms = compute records 0.980 ms + "
                        "merge records 0.120 ms"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("dominant straggler: partition 1 (52.7% of the wait "
                        "caused)"),
            std::string::npos)
      << report;
  const auto straggler = RunStats::dominantStraggler(util);
  ASSERT_TRUE(straggler.has_value());
  EXPECT_EQ(straggler->partition, 1u);
  EXPECT_DOUBLE_EQ(straggler->share, 580000.0 / 1100000.0);

  // The per-partition table carries the blame next to the time split:
  // p1's row ends caused 0.580 ms, 52.7%, 2 steals.
  const std::string table = renderUtilization(stats, "fixture");
  EXPECT_NE(table.find("| 0.580"), std::string::npos) << table;
  EXPECT_NE(table.find("| 52.7%"), std::string::npos) << table;
  EXPECT_NE(table.find("| 2 "), std::string::npos) << table;
}

// A real run with partition 1 sleeping in every compute superstep, no
// profiler armed: under either schedule every wave waits for p1's task at
// its seal (the barrier under BSP, the last task's end under async), so p1
// caused most of the run's wait and is named the dominant straggler.
TEST(Analysis, DelayedPartitionIsDominantStraggler) {
  const AlgorithmEntry& tdsp = testing::algorithm("tdsp");
  const testing::AlgoEnv env = testing::envFor(tdsp);
  for (const Schedule schedule : {Schedule::kBsp, Schedule::kAsync}) {
    SCOPED_TRACE(schedule == Schedule::kBsp ? "bsp" : "async");
    auto& injector = fault::FaultInjector::global();
    injector.arm(testing::unwrap(
                     fault::parseFaultPlan("delay@compute:p1:x1000:d3000")),
                 7);
    AlgorithmRequest request;
    request.schedule = schedule;
    const AlgorithmRun run = env.run(tdsp, request);
    injector.disarm();
    ASSERT_FALSE(run.stats.hasAttribution());
    const auto util = run.stats.partitionUtilization();
    ASSERT_EQ(util.size(), 3u);
    EXPECT_GT(util[1].wait_caused_ns,
              util[0].wait_caused_ns + util[2].wait_caused_ns);
    EXPECT_NE(renderWaitBlame(run.stats, "delayed")
                  .find("dominant straggler: partition 1 ("),
              std::string::npos);
  }
}

TEST(Analysis, EmptyRunYieldsNeutralAnalysis) {
  const RunStats stats(0);
  EXPECT_TRUE(stats.partitionUtilization().empty());
  const std::string report = renderWaitBlame(stats, "empty");
  EXPECT_NE(report.find("wait caused 0.000 ms = compute records 0.000 ms"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("dominant straggler: none"), std::string::npos);
}

TEST(Analysis, RecordWithNoPartitionsHasNoStraggler) {
  RunStats stats(2);
  stats.addSuperstep(SuperstepRecord{});
  stats.setWallClockNs(1000);
  const auto util = stats.partitionUtilization();
  ASSERT_EQ(util.size(), 2u);
  EXPECT_EQ(util[0].wait_caused_ns + util[1].wait_caused_ns, 0);
  EXPECT_NE(renderWaitBlame(stats, "bare").find("dominant straggler: none"),
            std::string::npos);
}

// One partition has no one to wait for: its barrier waves measure no
// wait, so nothing is caused and no straggler is named.
TEST(Analysis, SinglePartitionHasNoBarrierWait) {
  auto tmpl = testing::smallRoad(8, 8);
  auto pg = testing::partitionGraph(tmpl, 1);
  auto coll = testing::roadCollection(tmpl, 5);
  DirectInstanceProvider provider(pg, coll);
  TdspOptions options;
  options.latency_attr = tmpl->edgeSchema().requireIndex("latency");
  const auto run = runTdsp(pg, provider, options);
  const RunStats& stats = run.exec.stats;
  ASSERT_FALSE(stats.supersteps().empty());
  const auto util = stats.partitionUtilization();
  ASSERT_EQ(util.size(), 1u);
  EXPECT_EQ(util[0].sync_ns, 0);
  EXPECT_EQ(util[0].wait_caused_ns, 0);
  EXPECT_EQ(testing::metricTotal(stats, "cluster.barrier_wait_ns"), 0);
  EXPECT_NE(renderWaitBlame(stats, "k1").find("dominant straggler: none"),
            std::string::npos);
}

// Under the async schedule, whose supersteps interleave readiness-gated
// waves with barriered end-of-timestep waves, the blame an exported run
// carries still reconciles, after the JSON round trip, with the scheduler
// meters exported next to it — what ci/check_attrib.py reads.
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

  const auto loaded = testing::unwrap(
      runStatsFromJson(runStatsToJson(run.exec.stats, "async")));
  std::int64_t caused_ns = 0;
  std::int64_t stolen = 0;
  for (const auto& u : loaded.stats.partitionUtilization()) {
    caused_ns += u.wait_caused_ns;
    stolen += static_cast<std::int64_t>(u.stolen);
  }
  EXPECT_EQ(caused_ns, testing::meteredWaitNs(loaded.stats));
  EXPECT_EQ(stolen, testing::metricTotal(loaded.stats, "cluster.steals"));
  EXPECT_GT(testing::metricTotal(loaded.stats, "cluster.waves"), 0);
}

// --- runStatsToJson round trip ------------------------------------------

TEST(Analysis, RunStatsJsonRoundTrip) {
  RunStats stats = blameFixtureStats();
  stats.setWallClockNs(123456);
  stats.addCounter("finalized", 0, 1, 7);
  const std::string json = runStatsToJson(stats, "fixture");
  ASSERT_TRUE(testing::isValidJson(json));
  EXPECT_NE(json.find("\"schema_version\":"), std::string::npos);

  const auto loaded = testing::unwrap(runStatsFromJson(json));
  EXPECT_EQ(loaded.label, "fixture");
  EXPECT_EQ(loaded.stats.numPartitions(), 2u);
  EXPECT_EQ(loaded.stats.wallClockNs(), 123456);
  EXPECT_EQ(loaded.stats.totalSupersteps(), 4u);
  EXPECT_EQ(loaded.stats.totalMessages(), stats.totalMessages());
  EXPECT_EQ(loaded.stats.totalBytes(), stats.totalBytes());
  EXPECT_EQ(loaded.stats.totalCrossPartitionMessages(),
            stats.totalCrossPartitionMessages());
  EXPECT_EQ(loaded.stats.totalCrossPartitionBytes(),
            stats.totalCrossPartitionBytes());
  EXPECT_EQ(loaded.stats.counterTotal("finalized"), 7u);
  // The reloaded records reproduce the modelled time under the same
  // (default) network model, and the measured blame report.
  EXPECT_EQ(loaded.stats.modelledParallelNs(), stats.modelledParallelNs());
  EXPECT_EQ(renderWaitBlame(loaded.stats, "x"), renderWaitBlame(stats, "x"));
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
  const std::string version =
      "{\"schema_version\":" + std::to_string(kRunStatsSchemaVersion);
  EXPECT_FALSE(runStatsFromJson(version + ",").isOk());
  EXPECT_FALSE(runStatsFromJson("[1,2,3]").isOk());  // not an object
  // Version is right but the records are missing.
  EXPECT_FALSE(runStatsFromJson(version + "}").isOk());
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
