// Partition-quality advisor — turns an AttributionTable into concrete,
// checkable rebalancing suggestions.
//
// The superstep records say "partition 2 caused most of the wait"; the
// attribution table says which subgraphs make it heavy. The advisor closes
// the loop: it
// greedily moves the straggler's heaviest subgraphs to the lightest
// partition while the modelled wave makespan (max per-partition compute)
// improves, and emits findings like
//
//   subgraph 12 is 41% of p2's compute (8.3 ms); moving it to p0 cuts the
//   modelled wave makespan by 17%
//
// cross-referenced against the measured wait blame of the same run (is the
// compute-heavy partition also the partition that caused the most wait?).
// The suggested assignment is replayable: bench_ablation_advisor
// rebuilds the PartitionedGraph from `suggested_subgraph_partition` and
// reruns the workload to validate the predicted gain.
//
// The makespan model is per-partition *compute* only — deliberately the
// same signal the paper's load-balance discussion uses (subgraph size/
// degree skew), not a full comms model; the ablation bench is the ground
// truth for whether a suggestion holds up.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "metrics/attribution.h"
#include "metrics/stats.h"
#include "partition/partitioned_graph.h"

namespace tsg {

struct AdvisorMove {
  SubgraphId subgraph = kInvalidSubgraph;
  PartitionId from = kInvalidPartition;
  PartitionId to = kInvalidPartition;
  double share_of_from = 0.0;        // subgraph's fraction of from's compute
  std::int64_t subgraph_compute_ns = 0;
  std::int64_t makespan_before_ns = 0;
  std::int64_t makespan_after_ns = 0;
};

struct AdvisorReport {
  std::vector<AdvisorMove> moves;
  std::vector<std::string> findings;  // one human-readable line per insight
  // Subgraph -> partition after applying `moves`; equals the original
  // owners when no move clears the gain threshold.
  std::vector<PartitionId> suggested_subgraph_partition;
  std::int64_t makespan_before_ns = 0;
  std::int64_t makespan_after_ns = 0;

  [[nodiscard]] bool hasSuggestions() const { return !moves.empty(); }
  [[nodiscard]] double gainPct() const {
    return makespan_before_ns <= 0
               ? 0.0
               : 100.0 *
                     static_cast<double>(makespan_before_ns -
                                         makespan_after_ns) /
                     static_cast<double>(makespan_before_ns);
  }
};

// Suggests at most 3 moves, each improving the modelled makespan by at
// least 2%. `measured` is the run's RunStats::partitionUtilization() (empty
// when no superstep records are at hand); when present, findings name the
// partition that caused the most wait and note whether compute skew points
// at the same one.
AdvisorReport advisePartitioning(
    const AttributionTable& table,
    std::span<const RunStats::PartitionUtilization> measured);

// Expands `report.suggested_subgraph_partition` to a per-vertex assignment
// of `pg`'s template, ready for PartitionedGraph::build. `report` must come
// from an attribution table recorded over `pg`.
PartitionAssignment advisedAssignment(const PartitionedGraph& pg,
                                      const AdvisorReport& report);

// Renders the findings as an indented text block for tsgcli.
std::string renderAdvisorReport(const AdvisorReport& report);

}  // namespace tsg
