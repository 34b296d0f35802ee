// Ablation: partition-quality advisor (the paper's §IV-E subgraph
// rebalancing, driven by measured per-subgraph compute).
//
// The advisor turns an AttributionTable into a suggested subgraph ->
// partition assignment (greedy makespan reduction over observed per-
// subgraph compute). This bench is the ground truth for that suggestion:
// run TDSP on CARN with the profiler armed, feed the attribution into
// advisePartitioning(), rebuild the PartitionedGraph from the suggested
// assignment, rerun, and report modelled time / compute makespan before
// vs after, next to the edge cut each placement pays -- the paper's
// "improvement vs rebalancing cost" judgement. The placement deliberately
// folds more BFS regions than partitions so each partition owns movable
// subgraphs.
#include <sstream>

#include "algorithms/tdsp.h"
#include "bench_common.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "generators/topology.h"
#include "partition/partitioner.h"
#include "profile/advisor.h"
#include "profile/profiler.h"

namespace {

using namespace tsg;
using namespace tsg::bench;

struct Observed {
  double modelled_sec = 0;
  std::int64_t compute_makespan_ns = 0;  // max per-partition attributed compute
  double gini = 0;                       // per-subgraph compute concentration
  AttributionTable attrib;
  RunStats stats{0};
};

Observed observe(const PartitionedGraph& pg,
                 const TimeSeriesCollection& collection,
                 std::size_t latency_attr) {
  DirectInstanceProvider provider(pg, collection);
  TdspOptions options;
  options.source = 0;
  options.latency_attr = latency_attr;
  options.while_mode = true;
  const auto run = runTdsp(pg, provider, options);

  Observed obs;
  obs.modelled_sec = nsToSec(run.exec.stats.modelledParallelNs());
  obs.stats = run.exec.stats;
  TSG_CHECK(run.exec.stats.hasAttribution());
  obs.attrib = run.exec.stats.attribution();
  for (const std::int64_t ns : obs.attrib.partitionComputeNs()) {
    obs.compute_makespan_ns = std::max(obs.compute_makespan_ns, ns);
  }
  const auto totals = obs.attrib.subgraphTotals();
  std::vector<std::int64_t> weights;
  weights.reserve(totals.size());
  for (const auto& t : totals) {
    weights.push_back(t.compute_ns);
  }
  obs.gini = giniCoefficient(weights);
  return obs;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchConfig config = parseArgs(argc, argv);
  constexpr std::uint32_t kPartitions = 6;

  profile::arm(ProfileOptions{});

  auto tmpl = makeTemplate(GraphKind::kCarn, WorkloadKind::kRoad, config);
  const auto collection =
      makeCollection(tmpl, WorkloadKind::kRoad, GraphKind::kCarn, config);
  const std::size_t latency_attr =
      tmpl->edgeSchema().requireIndex(kLatencyAttr);

  // Folded-region placement: contiguous BFS regions (so the TDSP wave
  // reaches some partitions late and skews their load), more regions than
  // partitions, folded r mod k so every partition owns several subgraphs.
  // A plain BFS placement gives one subgraph per partition and nothing to
  // move; farthest-point seeding keeps folded regions apart, so they stay
  // separate subgraphs.
  const BfsPartitioner region_grower(config.seed + 7);
  auto assignment = region_grower.assign(*tmpl, kPartitions * 8);
  for (auto& p : assignment) {
    p %= kPartitions;
  }
  auto pg_result = PartitionedGraph::build(tmpl, assignment, kPartitions);
  TSG_CHECK(pg_result.isOk());
  const auto pg = std::move(pg_result).value();

  const auto before = observe(pg, collection, latency_attr);

  const auto report =
      advisePartitioning(before.attrib, before.stats.partitionUtilization());

  // Replay: rebuild the decomposition from the suggested assignment.
  const PartitionAssignment replay = advisedAssignment(pg, report);
  auto pg_after_result = PartitionedGraph::build(tmpl, replay, kPartitions);
  TSG_CHECK(pg_after_result.isOk());
  const auto after = observe(pg_after_result.value(), collection,
                             latency_attr);

  profile::disarm();

  TextTable table({"placement", "modelled (s)", "compute makespan (ms)",
                   "subgraph gini", "edge cut %"});
  const auto addRow = [&](const char* name, const Observed& obs,
                          const PartitionAssignment& placement) {
    const double cut =
        evaluatePartition(*tmpl, placement, kPartitions).cut_fraction;
    table.addRow({name, TextTable::fmtDouble(obs.modelled_sec, 3),
                  TextTable::fmtDouble(
                      static_cast<double>(obs.compute_makespan_ns) / 1e6, 2),
                  TextTable::fmtDouble(obs.gini, 3),
                  TextTable::fmtDouble(100.0 * cut, 2)});
  };
  addRow("original", before, assignment);
  addRow("advised", after, replay);

  std::ostringstream out;
  out << "=== Ablation: partition-quality advisor, TDSP on CARN, "
         "folded-region placement, 6 partitions (scale="
      << config.scale_percent << "%) ===\n"
      << table.render() << "advisor: " << report.moves.size()
      << " suggested moves; predicted makespan gain "
      << TextTable::fmtDouble(report.gainPct(), 1) << "%\n"
      << renderAdvisorReport(report)
      << "expected shape: when the advisor suggests moves, the replayed "
         "assignment's observed compute makespan drops toward the "
         "prediction at the price of the edge-cut change; with a balanced "
         "placement it suggests nothing and both rows match. Modelled-time "
         "deltas at bench scale sit within run noise — the makespan column "
         "is the signal.\n\n";
  emit(config, "ablation_advisor", out.str());
  emitRunStatsJson(config, "ablation_advisor", before.stats);
  finishTrace(config);
  return 0;
}
