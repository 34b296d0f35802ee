#include "profile/advisor.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>
#include <optional>

namespace tsg {
namespace {

// The advisor suggests at most this many moves, and only moves that cut
// the modelled makespan by at least kMinGainPct percent each.
constexpr std::int32_t kMaxMoves = 3;
constexpr double kMinGainPct = 2.0;

std::string fmtMs(std::int64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f ms",
                static_cast<double>(ns) / 1e6);
  return buf;
}

std::string fmtPct(double pct) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f%%", pct);
  return buf;
}

std::int64_t makespan(const std::vector<std::int64_t>& loads) {
  std::int64_t max = 0;
  for (const std::int64_t l : loads) {
    max = std::max(max, l);
  }
  return max;
}

}  // namespace

AdvisorReport advisePartitioning(
    const AttributionTable& table,
    std::span<const RunStats::PartitionUtilization> measured) {
  const std::optional<RunStats::Straggler> blamed =
      RunStats::dominantStraggler(measured);

  AdvisorReport report;
  report.suggested_subgraph_partition.resize(table.numSubgraphs());
  for (std::size_t sg = 0; sg < table.numSubgraphs(); ++sg) {
    report.suggested_subgraph_partition[sg] = table.subgraphs[sg].partition;
  }
  if (table.num_partitions < 2 || table.numSubgraphs() == 0) {
    report.findings.push_back(
        "nothing to rebalance (fewer than 2 partitions)");
    return report;
  }

  const auto totals = table.subgraphTotals();
  std::vector<std::int64_t> loads = table.partitionComputeNs();
  report.makespan_before_ns = makespan(loads);
  report.makespan_after_ns = report.makespan_before_ns;
  if (report.makespan_before_ns <= 0) {
    report.findings.push_back("no compute attributed; nothing to advise");
    return report;
  }

  std::vector<bool> moved(table.numSubgraphs(), false);
  for (std::int32_t step = 0; step < kMaxMoves; ++step) {
    const std::int64_t current = makespan(loads);
    const PartitionId straggler = static_cast<PartitionId>(
        std::max_element(loads.begin(), loads.end()) - loads.begin());

    // Best (subgraph, destination) over the straggler's subgraphs: the pair
    // minimizing the post-move makespan.
    SubgraphId best_sg = kInvalidSubgraph;
    PartitionId best_to = kInvalidPartition;
    std::int64_t best_makespan = current;
    for (std::size_t sg = 0; sg < totals.size(); ++sg) {
      if (moved[sg] ||
          report.suggested_subgraph_partition[sg] != straggler ||
          totals[sg].compute_ns <= 0) {
        continue;
      }
      for (PartitionId to = 0; to < table.num_partitions; ++to) {
        if (to == straggler) {
          continue;
        }
        std::int64_t after = 0;
        for (PartitionId p = 0; p < table.num_partitions; ++p) {
          std::int64_t load = loads[p];
          if (p == straggler) load -= totals[sg].compute_ns;
          if (p == to) load += totals[sg].compute_ns;
          after = std::max(after, load);
        }
        if (after < best_makespan) {
          best_makespan = after;
          best_sg = static_cast<SubgraphId>(sg);
          best_to = to;
        }
      }
    }
    if (best_sg == kInvalidSubgraph) {
      break;
    }
    const double gain_pct =
        100.0 * static_cast<double>(current - best_makespan) /
        static_cast<double>(current);
    if (gain_pct < kMinGainPct) {
      break;
    }

    AdvisorMove move;
    move.subgraph = best_sg;
    move.from = straggler;
    move.to = best_to;
    move.subgraph_compute_ns = totals[best_sg].compute_ns;
    move.share_of_from =
        loads[straggler] > 0
            ? static_cast<double>(totals[best_sg].compute_ns) /
                  static_cast<double>(loads[straggler])
            : 0.0;
    move.makespan_before_ns = current;
    move.makespan_after_ns = best_makespan;

    std::string finding =
        "subgraph " + std::to_string(best_sg) + " is " +
        fmtPct(100.0 * move.share_of_from) + " of p" +
        std::to_string(straggler) + "'s compute (" +
        fmtMs(move.subgraph_compute_ns) + "); moving it to p" +
        std::to_string(best_to) + " cuts the modelled wave makespan by " +
        fmtPct(gain_pct);
    if (blamed && blamed->partition == straggler) {
      finding += " — p" + std::to_string(straggler) +
                 " is also the dominant straggler (" +
                 fmtPct(100.0 * blamed->share) +
                 " of the measured wait caused)";
    }
    report.findings.push_back(std::move(finding));

    loads[straggler] -= totals[best_sg].compute_ns;
    loads[best_to] += totals[best_sg].compute_ns;
    moved[best_sg] = true;
    report.suggested_subgraph_partition[best_sg] = best_to;
    report.moves.push_back(move);
  }
  report.makespan_after_ns = makespan(loads);

  if (report.moves.empty()) {
    report.findings.push_back(
        "partitioning looks balanced: no single-subgraph move improves the "
        "modelled makespan by >= " +
        fmtPct(kMinGainPct));
  }

  // Measured-blame corroboration: name the partition that caused the most
  // wait, so a reader can see whether runtime waits agree with the table.
  if (blamed) {
    const auto& u = measured[blamed->partition];
    std::string line = "measured blame: p" +
                       std::to_string(blamed->partition) + " caused " +
                       fmtMs(u.wait_caused_ns) + " of wait (" +
                       fmtPct(100.0 * blamed->share) + ")";
    if (u.stolen > 0) {
      line += " and had " + std::to_string(u.stolen) +
              " tasks stolen from it";
    }
    report.findings.push_back(std::move(line));
  }
  return report;
}

PartitionAssignment advisedAssignment(const PartitionedGraph& pg,
                                      const AdvisorReport& report) {
  const GraphTemplate& tmpl = pg.graphTemplate();
  PartitionAssignment assignment(tmpl.numVertices());
  for (VertexIndex v = 0; v < tmpl.numVertices(); ++v) {
    const SubgraphId sg = pg.subgraphOfVertex(v);
    TSG_CHECK(static_cast<std::size_t>(sg) <
              report.suggested_subgraph_partition.size());
    assignment[v] = report.suggested_subgraph_partition[sg];
  }
  return assignment;
}

std::string renderAdvisorReport(const AdvisorReport& report) {
  std::string out = "partition-quality advisor:\n";
  for (const std::string& finding : report.findings) {
    out += "  * " + finding + "\n";
  }
  if (report.hasSuggestions()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "  modelled makespan: %.2f ms -> %.2f ms (-%.1f%%) over "
                  "%zu move(s)\n",
                  static_cast<double>(report.makespan_before_ns) / 1e6,
                  static_cast<double>(report.makespan_after_ns) / 1e6,
                  report.gainPct(), report.moves.size());
    out += buf;
  }
  return out;
}

}  // namespace tsg
