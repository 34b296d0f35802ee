// Post-run analysis over RunStats — the "why was it slow" layer on top of
// the raw telemetry (PR 2) that the paper's evaluation implies: critical-path
// decomposition per superstep (which partition the barrier waited on),
// barrier-wait attribution per partition and a skew index.
//
// The decomposition uses the same busy definition as
// RunStats::modelledParallelNs (busy = compute + send + load), so the
// analysis totals reconcile exactly with the modelled parallel time: for any
// record set, critical_path_busy_ns + comm_ns + barrier_ns ==
// modelledParallelNs (asserted by tests on a hand-computed fixture).
#pragma once

#include <string>
#include <vector>

#include "metrics/stats.h"

namespace tsg {

struct CriticalPathAnalysis {
  // One superstep on the critical path: the straggler is the partition whose
  // busy time the barrier waited on; barrier_wait_ns is the idle time it
  // imposed on everyone else (Σ over other partitions of max_busy − busy).
  struct SuperstepPath {
    Timestep timestep = 0;
    std::int32_t superstep = 0;
    bool is_merge_phase = false;
    std::int32_t straggler = -1;  // -1 when the record has no partitions
    std::int64_t max_busy_ns = 0;
    std::int64_t total_busy_ns = 0;
    std::int64_t barrier_wait_ns = 0;
    std::int64_t comm_ns = 0;  // modelled cross-partition transfer cost
  };

  // Per-partition totals across the run.
  struct PartitionAttribution {
    std::uint64_t straggler_supersteps = 0;  // times it set the critical path
    std::int64_t blamed_wait_ns = 0;  // idle time it imposed on the others
    std::int64_t busy_ns = 0;
  };

  std::vector<SuperstepPath> path;  // one entry per superstep record
  std::vector<PartitionAttribution> partitions;
  // straggler_by_timestep[t][p] — how often partition p set the critical
  // path within timestep t (the per-timestep straggler histogram).
  std::vector<std::vector<std::uint64_t>> straggler_by_timestep;

  std::int64_t critical_path_busy_ns = 0;  // Σ max_busy
  std::int64_t total_busy_ns = 0;          // Σ over all partitions
  std::int64_t comm_ns = 0;
  std::int64_t barrier_ns = 0;  // modelled per-superstep barrier cost
  // critical_path_busy_ns + comm_ns + barrier_ns; equals
  // RunStats::modelledParallelNs under the same NetworkModel.
  std::int64_t modelled_parallel_ns = 0;
  std::int64_t total_barrier_wait_ns = 0;
  // total_barrier_wait_ns split by phase: waiting on a straggler partition
  // inside an ordinary compute superstep vs waiting inside a Merge-BSP
  // superstep. The split tells you whether to attack partitioning skew or
  // the merge topology — and which part the async schedule can steal away
  // (only the straggler share; merge supersteps stay barriered).
  std::int64_t straggler_wait_ns = 0;
  std::int64_t merge_wait_ns = 0;

  // critical_path_busy / (total_busy / k): 1.0 = perfectly balanced,
  // k = one partition does all the work. 0 partitions / no busy time → 1.0.
  double skew_index = 1.0;

  // Partition with the largest blamed_wait_ns (-1 when there is none) and
  // its share of the total barrier wait.
  std::int32_t dominant_straggler = -1;
  double dominant_wait_fraction = 0.0;
};

CriticalPathAnalysis analyzeCriticalPath(const RunStats& stats,
                                         const NetworkModel& net = {});

// Human-readable report: time decomposition, per-partition attribution
// table, per-timestep straggler histogram and the worst supersteps.
std::string renderCriticalPath(const CriticalPathAnalysis& analysis,
                               const std::string& label);

}  // namespace tsg
