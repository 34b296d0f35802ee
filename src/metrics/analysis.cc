#include "metrics/analysis.h"

#include <algorithm>
#include <sstream>

#include "common/stopwatch.h"
#include "common/table.h"

namespace tsg {

namespace {

// Same transfer-cost model as RunStats::modelledParallelNs — keep the two in
// lock-step or the reconciliation invariant breaks.
std::int64_t commNs(const SuperstepRecord& rec, const NetworkModel& net) {
  return static_cast<std::int64_t>(
      static_cast<double>(rec.cross_partition_bytes) /
          net.bandwidth_bytes_per_sec * 1e9 +
      static_cast<double>(rec.cross_partition_messages) *
          static_cast<double>(net.per_message_ns));
}

std::int64_t busyNs(const PartitionSuperstepStats& ps) {
  return ps.compute_ns + ps.send_ns + ps.load_ns;
}

}  // namespace

CriticalPathAnalysis analyzeCriticalPath(const RunStats& stats,
                                         const NetworkModel& net) {
  CriticalPathAnalysis out;
  const std::uint32_t k = stats.numPartitions();
  out.partitions.resize(k);
  const std::int32_t timesteps = std::max(0, stats.numTimesteps());
  out.straggler_by_timestep.assign(
      static_cast<std::size_t>(timesteps),
      std::vector<std::uint64_t>(k, 0));

  out.path.reserve(stats.supersteps().size());
  for (const auto& rec : stats.supersteps()) {
    CriticalPathAnalysis::SuperstepPath step;
    step.timestep = rec.timestep;
    step.superstep = rec.superstep;
    step.is_merge_phase = rec.is_merge_phase;
    step.comm_ns = commNs(rec, net);

    for (PartitionId p = 0; p < rec.parts.size(); ++p) {
      const std::int64_t busy = busyNs(rec.parts[p]);
      step.total_busy_ns += busy;
      if (step.straggler < 0 || busy > step.max_busy_ns) {
        step.max_busy_ns = busy;
        step.straggler = static_cast<std::int32_t>(p);
      }
    }
    step.barrier_wait_ns =
        static_cast<std::int64_t>(rec.parts.size()) * step.max_busy_ns -
        step.total_busy_ns;

    if (step.straggler >= 0) {
      const auto s = static_cast<std::size_t>(step.straggler);
      if (s < out.partitions.size()) {
        ++out.partitions[s].straggler_supersteps;
        out.partitions[s].blamed_wait_ns += step.barrier_wait_ns;
      }
      if (rec.timestep >= 0 && rec.timestep < timesteps &&
          s < out.straggler_by_timestep[static_cast<std::size_t>(
                  rec.timestep)]
                  .size()) {
        ++out.straggler_by_timestep[static_cast<std::size_t>(rec.timestep)][s];
      }
    }
    for (PartitionId p = 0; p < rec.parts.size() && p < k; ++p) {
      out.partitions[p].busy_ns += busyNs(rec.parts[p]);
    }

    out.critical_path_busy_ns += step.max_busy_ns;
    out.total_busy_ns += step.total_busy_ns;
    out.comm_ns += step.comm_ns;
    out.barrier_ns += net.per_superstep_barrier_ns;
    out.total_barrier_wait_ns += step.barrier_wait_ns;
    if (step.is_merge_phase) {
      out.merge_wait_ns += step.barrier_wait_ns;
    } else {
      out.straggler_wait_ns += step.barrier_wait_ns;
    }
    out.path.push_back(step);
  }

  out.modelled_parallel_ns =
      out.critical_path_busy_ns + out.comm_ns + out.barrier_ns;

  if (k > 0 && out.total_busy_ns > 0) {
    const double mean_busy =
        static_cast<double>(out.total_busy_ns) / static_cast<double>(k);
    out.skew_index =
        static_cast<double>(out.critical_path_busy_ns) / mean_busy;
  }

  for (std::uint32_t p = 0; p < k; ++p) {
    if (out.dominant_straggler < 0 ||
        out.partitions[p].blamed_wait_ns >
            out.partitions[static_cast<std::size_t>(out.dominant_straggler)]
                .blamed_wait_ns) {
      out.dominant_straggler = static_cast<std::int32_t>(p);
    }
  }
  if (out.dominant_straggler >= 0 && out.total_barrier_wait_ns > 0) {
    out.dominant_wait_fraction =
        static_cast<double>(
            out.partitions[static_cast<std::size_t>(out.dominant_straggler)]
                .blamed_wait_ns) /
        static_cast<double>(out.total_barrier_wait_ns);
  }
  return out;
}

std::string renderCriticalPath(const CriticalPathAnalysis& analysis,
                               const std::string& label) {
  std::ostringstream out;
  out << "== critical path: " << label << " ==\n";
  out << "modelled parallel time " << TextTable::fmtDouble(
             nsToMs(analysis.modelled_parallel_ns), 3)
      << " ms = critical-path busy " << TextTable::fmtDouble(
             nsToMs(analysis.critical_path_busy_ns), 3)
      << " ms + comm " << TextTable::fmtDouble(nsToMs(analysis.comm_ns), 3)
      << " ms + barriers " << TextTable::fmtDouble(
             nsToMs(analysis.barrier_ns), 3)
      << " ms\n";
  out << "skew index " << TextTable::fmtDouble(analysis.skew_index, 3)
      << " (1 = balanced, k = serial); total barrier wait "
      << TextTable::fmtDouble(nsToMs(analysis.total_barrier_wait_ns), 3)
      << " ms across " << analysis.path.size() << " supersteps\n";
  out << "barrier wait split: straggler (compute supersteps) "
      << TextTable::fmtDouble(nsToMs(analysis.straggler_wait_ns), 3)
      << " ms, merge supersteps "
      << TextTable::fmtDouble(nsToMs(analysis.merge_wait_ns), 3)
      << " ms — only the straggler share is stealable under "
         "--schedule=async\n";
  if (analysis.dominant_straggler >= 0) {
    out << "dominant straggler: partition " << analysis.dominant_straggler
        << " (" << TextTable::fmtPercent(analysis.dominant_wait_fraction, 1)
        << " of barrier wait attributed to it)\n";
  }

  TextTable parts({"partition", "busy_ms", "straggler_supersteps",
                   "blamed_wait_ms", "wait_share"});
  for (std::size_t p = 0; p < analysis.partitions.size(); ++p) {
    const auto& pa = analysis.partitions[p];
    const double share =
        analysis.total_barrier_wait_ns > 0
            ? static_cast<double>(pa.blamed_wait_ns) /
                  static_cast<double>(analysis.total_barrier_wait_ns)
            : 0.0;
    parts.addRow({std::to_string(p), TextTable::fmtDouble(nsToMs(pa.busy_ns), 3),
                  std::to_string(pa.straggler_supersteps),
                  TextTable::fmtDouble(nsToMs(pa.blamed_wait_ns), 3),
                  TextTable::fmtPercent(share, 1)});
  }
  out << parts.render();

  // Per-timestep straggler histogram: which partition gated each timestep.
  if (!analysis.straggler_by_timestep.empty()) {
    std::vector<std::string> header{"timestep"};
    const std::size_t k = analysis.partitions.size();
    for (std::size_t p = 0; p < k; ++p) {
      header.push_back("part" + std::to_string(p));
    }
    TextTable straggle(std::move(header));
    for (std::size_t t = 0; t < analysis.straggler_by_timestep.size(); ++t) {
      const auto& row = analysis.straggler_by_timestep[t];
      bool any = false;
      for (const auto c : row) {
        any = any || c != 0;
      }
      if (!any) {
        continue;
      }
      std::vector<std::string> cells{std::to_string(t)};
      for (const auto c : row) {
        cells.push_back(std::to_string(c));
      }
      straggle.addRow(std::move(cells));
    }
    out << "-- supersteps gated per (timestep, partition) --\n"
        << straggle.render();
  }

  // The worst supersteps by imposed barrier wait.
  std::vector<const CriticalPathAnalysis::SuperstepPath*> worst;
  worst.reserve(analysis.path.size());
  for (const auto& step : analysis.path) {
    worst.push_back(&step);
  }
  std::sort(worst.begin(), worst.end(),
            [](const auto* a, const auto* b) {
              return a->barrier_wait_ns > b->barrier_wait_ns;
            });
  const std::size_t top = std::min<std::size_t>(5, worst.size());
  if (top > 0 && worst[0]->barrier_wait_ns > 0) {
    TextTable table({"timestep", "superstep", "straggler", "max_busy_ms",
                     "barrier_wait_ms"});
    for (std::size_t i = 0; i < top; ++i) {
      const auto& step = *worst[i];
      if (step.barrier_wait_ns == 0) {
        break;
      }
      table.addRow({std::to_string(step.timestep),
                    std::to_string(step.superstep),
                    std::to_string(step.straggler),
                    TextTable::fmtDouble(nsToMs(step.max_busy_ns), 3),
                    TextTable::fmtDouble(nsToMs(step.barrier_wait_ns), 3)});
    }
    out << "-- worst supersteps by imposed barrier wait --\n"
        << table.render();
  }
  return out.str();
}

}  // namespace tsg
