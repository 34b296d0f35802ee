// Cost-attribution profiler tests: the space-saving sketch's error
// envelope, the AttributionTable JSON round trip, zero-cost-when-off, the
// partition advisor, and the headline conservation invariant — for every
// shipped algorithm, fault-free and recovered, summing the attribution
// table over a partition's subgraphs reproduces the engine meters
// (SuperstepRecord parts) exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "algorithms/tdsp.h"
#include "common/json.h"
#include "common/rng.h"
#include "gofs/checkpoint.h"
#include "gofs/dataset.h"
#include "gofs/instance_provider.h"
#include "metrics/report.h"
#include "profile/advisor.h"
#include "metrics/attribution.h"
#include "profile/profiler.h"
#include "profile/sketch.h"
#include "runtime/fault_injector.h"
#include "test_util.h"

namespace tsg {
namespace {

using testing::unwrap;

// --- SpaceSavingSketch ---------------------------------------------------

TEST(SpaceSavingSketch, ExactUnderCapacity) {
  SpaceSavingSketch sketch(8);
  sketch.offer(1, 10);
  sketch.offer(2, 5);
  sketch.offer(1, 3);
  sketch.offer(3, 1);
  EXPECT_EQ(sketch.totalWeight(), 19u);
  const auto top = sketch.topK();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, 1u);
  EXPECT_EQ(top[0].count, 13u);
  EXPECT_EQ(top[0].error, 0u);
  EXPECT_EQ(top[1].key, 2u);
  EXPECT_EQ(top[1].count, 5u);
}

// The paper-grade guarantee (Metwally et al.): for every monitored key,
// count - error <= true <= count, error <= W / k, and any key whose true
// weight exceeds W / k is guaranteed to be monitored.
TEST(SpaceSavingSketch, ErrorEnvelopeUnderOverflow) {
  constexpr std::size_t kCapacity = 16;
  SpaceSavingSketch sketch(kCapacity);
  Rng rng(2015);
  // Skewed stream: key k drawn ~ 1/(k+1), weights 1..4.
  std::map<std::uint64_t, std::uint64_t> truth;
  std::uint64_t total = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniformDouble(1e-9, 1.0);
    const auto key = static_cast<std::uint64_t>(1.0 / u) % 200;
    const auto weight = static_cast<std::uint64_t>(rng.uniformInt(1, 4));
    sketch.offer(key, weight);
    truth[key] += weight;
    total += weight;
  }
  ASSERT_EQ(sketch.totalWeight(), total);
  const std::uint64_t bound = total / kCapacity;
  std::map<std::uint64_t, const SpaceSavingSketch::Entry*> monitored;
  for (const auto& e : sketch.topK()) {
    monitored[e.key] = nullptr;
    EXPECT_LE(e.error, bound);
    EXPECT_GE(e.count, truth[e.key]);               // upper bound
    EXPECT_LE(e.count - e.error, truth[e.key]);     // lower bound
  }
  for (const auto& [key, weight] : truth) {
    if (weight > bound) {
      EXPECT_TRUE(monitored.count(key))
          << "key " << key << " with weight " << weight
          << " > W/k = " << bound << " must be monitored";
    }
  }
}

TEST(SpaceSavingSketch, MergePreservesEnvelope) {
  constexpr std::size_t kCapacity = 8;
  SpaceSavingSketch a(kCapacity);
  SpaceSavingSketch b(kCapacity);
  std::map<std::uint64_t, std::uint64_t> truth;
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const auto key = static_cast<std::uint64_t>(rng.uniformInt(0, 40));
    (i % 2 == 0 ? a : b).offer(key, 1);
    truth[key] += 1;
  }
  a.merge(b);
  EXPECT_EQ(a.totalWeight(), 2000u);
  const std::uint64_t bound = a.totalWeight() / kCapacity;
  for (const auto& e : a.topK()) {
    EXPECT_GE(e.count, truth[e.key]);
    EXPECT_LE(e.count - e.error, truth[e.key]);
    EXPECT_LE(e.error, bound);
  }
}

// --- AttributionTable ----------------------------------------------------

AttributionTable sampleTable() {
  AttributionTable t;
  t.num_partitions = 2;
  t.first_timestep = 3;
  t.num_rows = 2;
  t.sample_every = 4;
  t.subgraphs = {{0, 0, 10, 20, 2}, {1, 0, 5, 8, 1}, {2, 1, 12, 30, 3}};
  t.rows.resize(2, std::vector<SubgraphCosts>(3));
  t.rows[0][0] = {1000, 2, 3, 96};
  t.rows[0][2] = {4000, 1, 1, 32};
  t.rows[1][1] = {500, 1, 0, 0};
  t.msgs_in = {1, 0, 3};
  t.bytes_in = {32, 0, 96};
  t.hot_compute = {{42, 1, 9000, 100}};
  t.hot_fanout = {{17, 0, 12, 0}};
  t.sketch_weight_compute = 9000;
  t.sketch_weight_fanout = 12;
  return t;
}

TEST(Attribution, JsonRoundTrip) {
  const AttributionTable t = sampleTable();
  JsonWriter w;
  attributionToJson(w, t);
  const auto parsed = unwrap(JsonValue::parse(w.str()));
  const AttributionTable back = unwrap(attributionFromJson(parsed));

  // Schema 3: each cell is [compute_ns, computes, msgs_out, bytes_out].
  EXPECT_EQ(back.schema_version, 3);
  const JsonValue& cell = parsed.find("rows")->array()[0].array()[0];
  ASSERT_TRUE(cell.isArray());
  EXPECT_EQ(cell.array().size(), 4u);
  EXPECT_EQ(back.num_partitions, t.num_partitions);
  EXPECT_EQ(back.first_timestep, t.first_timestep);
  EXPECT_EQ(back.num_rows, t.num_rows);
  EXPECT_EQ(back.sample_every, t.sample_every);
  ASSERT_EQ(back.subgraphs.size(), t.subgraphs.size());
  for (std::size_t i = 0; i < t.subgraphs.size(); ++i) {
    EXPECT_EQ(back.subgraphs[i].partition, t.subgraphs[i].partition);
    EXPECT_EQ(back.subgraphs[i].vertices, t.subgraphs[i].vertices);
    EXPECT_EQ(back.subgraphs[i].remote_edges, t.subgraphs[i].remote_edges);
  }
  ASSERT_EQ(back.rows.size(), t.rows.size());
  for (std::size_t r = 0; r < t.rows.size(); ++r) {
    for (std::size_t s = 0; s < t.rows[r].size(); ++s) {
      EXPECT_EQ(back.rows[r][s].compute_ns, t.rows[r][s].compute_ns);
      EXPECT_EQ(back.rows[r][s].computes, t.rows[r][s].computes);
      EXPECT_EQ(back.rows[r][s].msgs_out, t.rows[r][s].msgs_out);
      EXPECT_EQ(back.rows[r][s].bytes_out, t.rows[r][s].bytes_out);
    }
  }
  EXPECT_EQ(back.msgs_in, t.msgs_in);
  EXPECT_EQ(back.bytes_in, t.bytes_in);
  ASSERT_EQ(back.hot_compute.size(), 1u);
  EXPECT_EQ(back.hot_compute[0].vertex, 42u);
  EXPECT_EQ(back.hot_compute[0].weight, 9000u);
  EXPECT_EQ(back.hot_compute[0].error, 100u);
  EXPECT_EQ(back.sketch_weight_compute, t.sketch_weight_compute);
  EXPECT_EQ(back.sketch_weight_fanout, t.sketch_weight_fanout);
}

// Writes `t` and parses it back; the parse must fail with CorruptData whose
// message names `field`.
void expectRejected(const AttributionTable& t, const std::string& field) {
  JsonWriter w;
  attributionToJson(w, t);
  const auto result =
      attributionFromJson(unwrap(JsonValue::parse(w.str())));
  ASSERT_FALSE(result.isOk()) << field;
  EXPECT_EQ(result.status().code(), ErrorCode::kCorruptData);
  EXPECT_NE(result.status().message().find(field), std::string::npos)
      << result.status().toString();
}

TEST(Attribution, RejectsUnknownSchemaVersion) {
  AttributionTable t = sampleTable();
  t.schema_version = 999;
  expectRejected(t, "schema_version");
  // Schema 2 carried a fifth, resident-bytes cell column.
  t.schema_version = 2;
  expectRejected(t, "schema_version");
}

TEST(Attribution, RejectsRowCountOtherThanNumRows) {
  AttributionTable t = sampleTable();
  t.num_rows = 5;
  expectRejected(t, "num_rows");
}

TEST(Attribution, RejectsRowWithoutOneCellPerSubgraph) {
  AttributionTable t = sampleTable();
  t.rows[1].pop_back();
  expectRejected(t, "rows[1]");
}

TEST(Attribution, RejectsInboundTrafficShorterThanSubgraphs) {
  AttributionTable t = sampleTable();
  t.msgs_in.pop_back();
  expectRejected(t, "msgs_in");
  t = sampleTable();
  t.bytes_in.pop_back();
  expectRejected(t, "bytes_in");
}

TEST(Attribution, RejectsSubgraphPartitionOutOfRange) {
  AttributionTable t = sampleTable();
  t.subgraphs[2].partition = 2;
  expectRejected(t, "num_partitions");
}

TEST(Attribution, GiniCoefficient) {
  EXPECT_DOUBLE_EQ(giniCoefficient({}), 0.0);
  EXPECT_DOUBLE_EQ(giniCoefficient({5, 5, 5, 5}), 0.0);
  // One subgraph owns everything: G -> (n-1)/n.
  EXPECT_NEAR(giniCoefficient({0, 0, 0, 100}), 0.75, 1e-9);
  const AttributionTable t = sampleTable();
  EXPECT_GT(t.rowGini(0), 0.0);
  EXPECT_LE(t.rowGini(0), 1.0);
}

TEST(Attribution, TotalsFoldByPartition) {
  const AttributionTable t = sampleTable();
  const auto totals = t.subgraphTotals();
  ASSERT_EQ(totals.size(), 3u);
  EXPECT_EQ(totals[0].compute_ns, 1000);
  EXPECT_EQ(totals[1].compute_ns, 500);
  const auto per_part = t.partitionComputeNs();
  ASSERT_EQ(per_part.size(), 2u);
  EXPECT_EQ(per_part[0], 1500);
  EXPECT_EQ(per_part[1], 4000);
}

// --- Advisor -------------------------------------------------------------

AttributionTable imbalancedTable() {
  AttributionTable t;
  t.num_partitions = 2;
  t.num_rows = 1;
  // p0 owns two heavy subgraphs (600us + 500us), p1 one light (100us):
  // moving the 500us subgraph to p1 balances the makespan 1.1ms -> 600us.
  t.subgraphs = {{0, 0, 100, 0, 0}, {1, 0, 80, 0, 0}, {2, 1, 20, 0, 0}};
  t.rows.resize(1, std::vector<SubgraphCosts>(3));
  t.rows[0][0] = {600000, 1, 0, 0};
  t.rows[0][1] = {500000, 1, 0, 0};
  t.rows[0][2] = {100000, 1, 0, 0};
  t.msgs_in.resize(3);
  t.bytes_in.resize(3);
  return t;
}

TEST(Advisor, SuggestsMoveForImbalancedPartitions) {
  const AttributionTable t = imbalancedTable();
  const AdvisorReport report = advisePartitioning(t, {});
  ASSERT_TRUE(report.hasSuggestions());
  EXPECT_LT(report.makespan_after_ns, report.makespan_before_ns);
  EXPECT_EQ(report.makespan_before_ns, 1100000);
  // The suggested assignment must reproduce the predicted makespan.
  std::vector<std::int64_t> load(t.num_partitions, 0);
  const auto totals = t.subgraphTotals();
  for (std::size_t sg = 0; sg < totals.size(); ++sg) {
    load[static_cast<std::size_t>(
        report.suggested_subgraph_partition[sg])] += totals[sg].compute_ns;
  }
  EXPECT_EQ(*std::max_element(load.begin(), load.end()),
            report.makespan_after_ns);
  EXPECT_FALSE(report.findings.empty());
}

// The run's measured blame corroborates the move: the compute-heavy p0 is
// also the partition that caused most of the wait.
TEST(Advisor, NamesTheMeasuredStragglerNextToItsMove) {
  std::vector<RunStats::PartitionUtilization> measured(2);
  measured[0].wait_caused_ns = 3000000;
  measured[0].stolen = 2;
  measured[1].wait_caused_ns = 1000000;
  const AdvisorReport report = advisePartitioning(imbalancedTable(), measured);
  ASSERT_TRUE(report.hasSuggestions());
  EXPECT_NE(report.findings.front().find(
                "p0 is also the dominant straggler (75% of the measured "
                "wait caused)"),
            std::string::npos)
      << report.findings.front();
  EXPECT_EQ(report.findings.back(),
            "measured blame: p0 caused 3.00 ms of wait (75%) and had 2 tasks "
            "stolen from it");
}

TEST(Advisor, BalancedTableSuggestsNothing) {
  AttributionTable t = imbalancedTable();
  t.rows[0][0] = {500000, 1, 0, 0};
  t.rows[0][1] = {100000, 1, 0, 0};
  t.rows[0][2] = {500000, 1, 0, 0};
  const AdvisorReport report = advisePartitioning(t, {});
  EXPECT_FALSE(report.hasSuggestions());
  // Identity assignment back.
  for (std::size_t sg = 0; sg < t.subgraphs.size(); ++sg) {
    EXPECT_EQ(report.suggested_subgraph_partition[sg],
              t.subgraphs[sg].partition);
  }
}

TEST(Advisor, SinglePartitionIsNoop) {
  AttributionTable t = imbalancedTable();
  t.num_partitions = 1;
  for (auto& meta : t.subgraphs) {
    meta.partition = 0;
  }
  const AdvisorReport report = advisePartitioning(t, {});
  EXPECT_FALSE(report.hasSuggestions());
  EXPECT_EQ(report.suggested_subgraph_partition,
            std::vector<PartitionId>(t.subgraphs.size(), 0));
}

TEST(Advisor, RespectsMaxMoves) {
  // p0 owns ten equal subgraphs and p1 one idle one: every move of a p0
  // subgraph to p1 up to the fifth cuts the makespan by >= 10%, so only
  // the advisor's cap of 3 moves stops it.
  AttributionTable t;
  t.num_partitions = 2;
  t.num_rows = 1;
  t.rows.resize(1);
  for (SubgraphId sg = 0; sg <= 10; ++sg) {
    t.subgraphs.push_back({sg, sg < 10 ? 0u : 1u, 10, 0, 0});
    t.rows[0].push_back({sg < 10 ? 100000 : 0, 1, 0, 0});
  }
  const AdvisorReport report = advisePartitioning(t, {});
  ASSERT_EQ(report.moves.size(), 3u);
  for (const AdvisorMove& move : report.moves) {
    EXPECT_EQ(move.from, 0u);
    EXPECT_EQ(move.to, 1u);
  }
  EXPECT_EQ(report.makespan_after_ns, 700000);
}

// --- Conservation invariant across all nine algorithms -------------------

// Arms the profiler for one scope; sample_every=1 so vertex-centric runs
// sample every vertex (the sketch fan-out weight then reconciles exactly).
class ArmedProfiler {
 public:
  ArmedProfiler() {
    ProfileOptions options;
    options.sample_every = 1;
    options.sketch_capacity = 32;
    profile::arm(options);
  }
  ~ArmedProfiler() { profile::disarm(); }
};

// The invariant: per partition, the attribution cells of its subgraphs sum
// to exactly the meters the engine recorded per superstep (which also feed
// the per-partition MetricsRegistry counters).
void expectReconciles(const RunStats& stats) {
  ASSERT_TRUE(stats.hasAttribution());
  const AttributionTable& a = stats.attribution();
  ASSERT_FALSE(a.empty());
  const std::size_t k = a.num_partitions;

  std::vector<std::uint64_t> meter_computes(k, 0);
  std::vector<std::uint64_t> meter_msgs(k, 0);
  std::vector<std::uint64_t> meter_bytes(k, 0);
  for (const auto& rec : stats.supersteps()) {
    for (std::size_t p = 0; p < rec.parts.size() && p < k; ++p) {
      meter_computes[p] += rec.parts[p].subgraphs_computed;
      meter_msgs[p] += rec.parts[p].messages_sent;
      meter_bytes[p] += rec.parts[p].bytes_sent;
    }
  }

  std::vector<std::uint64_t> attrib_computes(k, 0);
  std::vector<std::uint64_t> attrib_msgs(k, 0);
  std::vector<std::uint64_t> attrib_bytes(k, 0);
  std::uint64_t out_msgs = 0;
  std::uint64_t out_bytes = 0;
  for (const auto& row : a.rows) {
    for (std::size_t sg = 0; sg < row.size(); ++sg) {
      const auto p = static_cast<std::size_t>(a.subgraphs[sg].partition);
      ASSERT_LT(p, k);
      attrib_computes[p] += row[sg].computes;
      attrib_msgs[p] += row[sg].msgs_out;
      attrib_bytes[p] += row[sg].bytes_out;
      out_msgs += row[sg].msgs_out;
      out_bytes += row[sg].bytes_out;
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    EXPECT_EQ(attrib_computes[p], meter_computes[p]) << "partition " << p;
    EXPECT_EQ(attrib_msgs[p], meter_msgs[p]) << "partition " << p;
    EXPECT_EQ(attrib_bytes[p], meter_bytes[p]) << "partition " << p;
  }

  // Every send charges the destination too: in == out, conserved.
  std::uint64_t in_msgs = 0;
  std::uint64_t in_bytes = 0;
  for (std::size_t sg = 0; sg < a.msgs_in.size(); ++sg) {
    in_msgs += a.msgs_in[sg];
    in_bytes += a.bytes_in[sg];
  }
  EXPECT_EQ(in_msgs, out_msgs);
  EXPECT_EQ(in_bytes, out_bytes);
}

// Recovered runs: a dropped delivery batch commits its superstep's record
// before it unwinds, a killed worker aborts its wave; either way the run
// rolls back to the store's newest cut and replays. The table must still
// match the records exactly — a cell is charged when its record part is
// committed, so work of an aborted wave is in neither and a committed
// superstep that is replayed is in both. The fault lands in the second
// timestep when the fault-free run has one, else in the only one.
void expectRecoveredRunsReconcile(const testing::AlgoEnv& env,
                                  const AlgorithmEntry& entry,
                                  AlgorithmRequest request,
                                  std::int32_t timesteps) {
  const std::string t = timesteps > 1 ? "t1" : "t0";
  auto& injector = fault::FaultInjector::global();
  for (const std::string& plan :
       {"drop@deliver:" + t, "kill@compute:p1:" + t}) {
    SCOPED_TRACE(plan);
    MemoryCheckpointStore store;
    request.checkpoint_store = &store;
    injector.arm(unwrap(fault::parseFaultPlan(plan)), 7);
    const AlgorithmRun run = env.run(entry, request);
    injector.disarm();
    EXPECT_GE(testing::metricTotal(run.stats, "engine.recoveries"), 1);
    expectReconciles(run.stats);
  }
}

void expectAttributionReconcilesUnder(const AlgorithmEntry& entry,
                                      Schedule schedule) {
  const testing::AlgoEnv env = testing::envFor(entry);
  ArmedProfiler armed;
  AlgorithmRequest request;
  request.schedule = schedule;
  const AlgorithmRun run = env.run(entry, request);
  expectReconciles(run.stats);
  if (entry.has_timestep_loop) {
    // The plain vertex engine recovers by restarting and ignores the
    // store, so only runs with a timestep loop take the recovered cases.
    expectRecoveredRunsReconcile(env, entry, request,
                                 run.stats.numTimesteps());
    return;
  }
  // The plain vertex engine feeds the heavy-hitter sketches; at
  // sample_every=1 the fan-out sketch weight is exactly the total message
  // count.
  const AttributionTable& a = run.stats.attribution();
  EXPECT_FALSE(a.hot_compute.empty());
  EXPECT_GT(a.sketch_weight_compute, 0u);
  std::uint64_t total_msgs = 0;
  for (const auto& rec : run.stats.supersteps()) {
    for (const auto& part : rec.parts) {
      total_msgs += part.messages_sent;
    }
  }
  EXPECT_EQ(a.sketch_weight_fanout, total_msgs);
}

const bool kProfileReconciliation = testing::registerPerAlgorithm(
    "ProfileReconciliation", "", [](const AlgorithmEntry& entry) {
      expectAttributionReconcilesUnder(entry, Schedule::kBsp);
    });
const bool kProfileReconciliationAsync = testing::registerPerAlgorithm(
    "ProfileReconciliation", "Async", [](const AlgorithmEntry& entry) {
      expectAttributionReconcilesUnder(entry, Schedule::kAsync);
    });

// --- Lifecycle -----------------------------------------------------------

TEST(Profiler, DisarmedRunRecordsNothing) {
  profile::disarm();
  const AlgorithmEntry& meme = testing::algorithm("meme");
  const auto run = testing::envFor(meme).run(meme);
  EXPECT_FALSE(profile::enabled());
  EXPECT_FALSE(run.stats.hasAttribution());
}

// A barriered wave's wait is blamed on its straggler with the profiler
// armed too: arming it adds attribution rows without disturbing the blame
// the superstep records carry. With partition 1 sleeping in every compute
// superstep, most of the run's caused wait lands on it.
TEST(Profiler, BarrierBlameLandsOnTheStraggler) {
  const AlgorithmEntry& tdsp = testing::algorithm("tdsp");
  const testing::AlgoEnv env = testing::envFor(tdsp);
  auto& injector = fault::FaultInjector::global();
  injector.arm(unwrap(fault::parseFaultPlan("delay@compute:p1:x1000:d3000")),
               7);
  const AlgorithmRun run = [&] {
    ArmedProfiler armed;
    return env.run(tdsp);
  }();
  injector.disarm();
  ASSERT_TRUE(run.stats.hasAttribution());
  const auto util = run.stats.partitionUtilization();
  ASSERT_EQ(util.size(), 3u);
  EXPECT_GT(util[1].wait_caused_ns,
            util[0].wait_caused_ns + util[2].wait_caused_ns);
}

// A partition's residency is its gofs.resident_bytes gauge, which `tsgcli
// analyze --attrib` reads from the run's metrics: a profiled run over a
// packed GoFS dataset carries it for every partition.
TEST(Profiler, RunMetricsCarryEachPartitionsResidentBytes) {
  testing::TempDir tmp("tsg_profile_gofs");
  auto tmpl = testing::smallRoad(8, 8);
  const auto written = testing::partitionGraph(tmpl, 3);
  const auto coll = testing::roadCollection(tmpl, 12);
  GofsOptions gofs;
  gofs.temporal_packing = 3;
  ASSERT_TRUE(
      writeGofsDataset(tmp.path(), "road", written, coll, gofs).isOk());
  const auto ds = unwrap(GofsDataset::open(tmp.path()));
  const PartitionedGraph& pg = ds.partitionedGraph();
  const auto provider = ds.makeProvider();
  TdspOptions options;
  options.source = 0;
  options.latency_attr = 0;
  options.while_mode = false;
  const TdspRun run = [&] {
    ArmedProfiler armed;
    return runTdsp(pg, *provider, options);
  }();
  const RunStats& stats = run.exec.stats;
  ASSERT_TRUE(stats.hasAttribution());
  EXPECT_EQ(stats.attribution().num_rows, 13);
  for (PartitionId p = 0; p < pg.numPartitions(); ++p) {
    std::int64_t gauge = -1;
    for (const auto& point : stats.metrics()) {
      if (point.name == "gofs.resident_bytes" &&
          point.partition == static_cast<std::int32_t>(p)) {
        gauge = point.value;
      }
    }
    EXPECT_GT(gauge, 0) << "partition " << p;
  }
}

// Attribution survives the full RunStats JSON round trip (what `tsgcli
// analyze --attrib` consumes from an exported run).
TEST(Profiler, AttributionRoundTripsThroughRunStatsJson) {
  const AlgorithmEntry& meme = testing::algorithm("meme");
  const testing::AlgoEnv env = testing::envFor(meme);
  ArmedProfiler armed;
  const auto run = env.run(meme);
  ASSERT_TRUE(run.stats.hasAttribution());

  const std::string doc = runStatsToJson(run.stats, "profile-test");
  const auto loaded = unwrap(runStatsFromJson(doc));
  ASSERT_TRUE(loaded.stats.hasAttribution());
  const AttributionTable& before = run.stats.attribution();
  const AttributionTable& after = loaded.stats.attribution();
  EXPECT_EQ(after.numSubgraphs(), before.numSubgraphs());
  EXPECT_EQ(after.num_rows, before.num_rows);
  EXPECT_EQ(after.subgraphTotals().size(), before.subgraphTotals().size());
  EXPECT_EQ(after.partitionComputeNs(), before.partitionComputeNs());
}

// --- Advisor replay ------------------------------------------------------

// Placement is transparent to results: rebuilding the partitioned graph
// from the advisor's suggestion after a real profiled run must reproduce
// TDSP exactly.
TEST(Advisor, EndToEndAfterRealRun) {
  // Hash placement shatters the lattice into many subgraphs per partition,
  // so the advisor has movable ones; TDSP from a corner skews the work.
  auto tmpl = testing::smallRoad(10, 10);
  const auto pg = unwrap(
      PartitionedGraph::build(tmpl, HashPartitioner().assign(*tmpl, 4), 4));
  const auto coll = testing::roadCollection(tmpl, 10);
  TdspOptions options;
  options.source = 0;
  options.latency_attr = 0;
  DirectInstanceProvider provider(pg, coll);
  const TdspRun run = [&] {
    ArmedProfiler armed;
    return runTdsp(pg, provider, options);
  }();
  ASSERT_TRUE(run.exec.stats.hasAttribution());

  const AdvisorReport report = advisePartitioning(
      run.exec.stats.attribution(), run.exec.stats.partitionUtilization());
  ASSERT_EQ(report.suggested_subgraph_partition.size(), pg.numSubgraphs());
  const auto advised = unwrap(
      PartitionedGraph::build(tmpl, advisedAssignment(pg, report), 4));
  DirectInstanceProvider advised_provider(advised, coll);
  const TdspRun replay = runTdsp(advised, advised_provider, options);
  EXPECT_EQ(run.finalized_at, replay.finalized_at);
  EXPECT_EQ(run.tdsp, replay.tdsp);
}

}  // namespace
}  // namespace tsg
