// Ablation: GoFS temporal packing density (the paper fixes it at 10 and
// observes load bumps at pack boundaries, §IV-A/§IV-D).
//
// Sweep packing ∈ {1, 5, 10, 25}: small packs touch disk every timestep
// (many small loads); big packs amortize I/O but front-load latency and
// memory. Expected: the number of load EVENTS drops ~1/packing (300 → 12),
// which is the paper's motivation ("minimize frequent disk access"); total
// decode time stays roughly flat since the same bytes are decoded either
// way, so on spinning disks / network filesystems — where per-event latency
// dominates — larger packs win, with diminishing returns past ~10.
#include <sstream>

#include "algorithms/tdsp.h"
#include "bench_common.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "generators/topology.h"
#include "partition/partitioner.h"

namespace {

using namespace tsg;
using namespace tsg::bench;

}  // namespace

int main(int argc, char** argv) {
  const BenchConfig config = parseArgs(argc, argv);
  constexpr std::uint32_t kPartitions = 6;

  // Build the shared pieces once.
  auto tmpl = makeTemplate(GraphKind::kCarn, WorkloadKind::kRoad, config);
  const BfsPartitioner partitioner(config.seed + 3);
  const auto assignment = partitioner.assign(*tmpl, kPartitions);
  auto pg_result = PartitionedGraph::build(tmpl, assignment, kPartitions);
  TSG_CHECK(pg_result.isOk());
  const auto pg = std::move(pg_result).value();
  const auto collection =
      makeCollection(tmpl, WorkloadKind::kRoad, GraphKind::kCarn, config);

  TextTable table({"packing", "slice files", "dataset MB", "total load (s)",
                   "load events", "run wall (s)"});
  for (const std::uint32_t packing : {1u, 5u, 10u, 25u}) {
    const std::string dir = config.data_dir + "/ablation_packing_" +
                            std::to_string(packing);
    GofsOptions gofs;
    gofs.temporal_packing = packing;
    const Status status =
        writeGofsDataset(dir, "ablate", pg, collection, gofs);
    TSG_CHECK_MSG(status.isOk(), status.toString());
    auto ds_result = GofsDataset::open(dir);
    TSG_CHECK(ds_result.isOk());
    const auto ds = std::move(ds_result).value();
    auto storage = ds.storageStats();
    TSG_CHECK(storage.isOk());

    auto provider = ds.makeProvider();
    TdspOptions options;
    options.source = 0;
    options.latency_attr =
        pg.graphTemplate().edgeSchema().requireIndex(kLatencyAttr);
    options.while_mode = false;
    const auto run = runTdsp(ds.partitionedGraph(), *provider, options);

    std::int64_t load_ns = 0;
    std::uint64_t load_events = 0;
    for (const auto& rec : run.exec.stats.supersteps()) {
      for (const auto& part : rec.parts) {
        load_ns += part.load_ns;
        load_events += part.load_ns > 0 ? 1 : 0;
      }
    }
    table.addRow({std::to_string(packing),
                  std::to_string(storage.value().slice_files),
                  TextTable::fmtDouble(
                      static_cast<double>(storage.value().slice_bytes) / 1e6,
                      1),
                  TextTable::fmtDouble(nsToSec(load_ns), 3),
                  std::to_string(load_events),
                  TextTable::fmtDouble(nsToSec(run.exec.stats.wallClockNs()),
                                       3)});
  }

  std::ostringstream out;
  out << "=== Ablation: temporal packing density (TDSP on CARN, 6 "
         "partitions, scale="
      << config.scale_percent << "%) ===\n"
      << table.render()
      << "expected shape: load events scale ~1/packing (the paper's "
         "motivation); decode time stays ~flat on a warm page cache\n\n";
  emit(config, "ablation_packing", out.str());
  return 0;
}
