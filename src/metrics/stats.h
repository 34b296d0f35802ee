// RunStats — execution metering for TI-BSP and vertex-centric runs.
//
// The engine appends one SuperstepRecord per (timestep, superstep) with the
// per-partition breakdown the paper analyses: compute time, message send
// time ("partition overhead"), barrier wait ("sync overhead") and instance
// load time, plus who caused the wait: the wall-clock wait each partition
// imposed on the others, and whether another worker stole its task.
// Aggregations reproduce the evaluation's derived series:
//   * per-timestep time (Fig. 6),
//   * per-partition utilization split (Fig. 7b/7d),
//   * modelled parallel time — the critical-path wall-clock a real k-VM
//     deployment would see (this host has one core, so partitions
//     time-slice; see DESIGN.md §1).
//
// User counters (e.g. "vertices finalized") are accumulated per
// (counter, timestep, partition) for Fig. 7a/7c.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "graph/types.h"
#include "metrics/attribution.h"

namespace tsg {

struct PartitionSuperstepStats {
  std::int64_t compute_ns = 0;
  std::int64_t send_ns = 0;
  std::int64_t sync_ns = 0;
  std::int64_t load_ns = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t subgraphs_computed = 0;
  // Wait this partition caused: a wave's straggler (the partition whose
  // task ended last) is charged every worker's wait for it — barrier wait,
  // or an async wave's seal wait; an async task is also charged the ready
  // wait it ended. Summed over a run it equals cluster.barrier_wait_ns +
  // engine.ready_wait_ns + cluster.seal_wait_ns, as does summed sync_ns.
  std::int64_t wait_caused_ns = 0;
  // 1 when another worker ran this partition's task (summed: cluster.steals).
  std::uint64_t stolen = 0;
};

struct SuperstepRecord {
  Timestep timestep = 0;
  std::int32_t superstep = 0;
  bool is_merge_phase = false;
  std::vector<PartitionSuperstepStats> parts;
  std::uint64_t delivered_messages = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t cross_partition_bytes = 0;
  std::uint64_t cross_partition_messages = 0;
};

// Network model used ONLY for modelled parallel time: approximates the
// paper's 1 GbE interconnect between partition VMs.
struct NetworkModel {
  double bandwidth_bytes_per_sec = 125e6;  // 1 Gb/s
  std::int64_t per_message_ns = 2'000;     // serialization + framing
  std::int64_t per_superstep_barrier_ns = 500'000;  // 0.5 ms sync round
};

class RunStats {
 public:
  explicit RunStats(std::uint32_t num_partitions = 0)
      : num_partitions_(num_partitions) {}

  [[nodiscard]] std::uint32_t numPartitions() const { return num_partitions_; }

  void addSuperstep(SuperstepRecord record) {
    records_.push_back(std::move(record));
  }
  [[nodiscard]] const std::vector<SuperstepRecord>& supersteps() const {
    return records_;
  }

  void addCounter(const std::string& name, Timestep t, PartitionId p,
                  std::uint64_t value);
  // counters()[name][timestep][partition]; rows are sized lazily.
  [[nodiscard]] const std::map<std::string,
                               std::vector<std::vector<std::uint64_t>>>&
  counters() const {
    return counters_;
  }
  [[nodiscard]] std::uint64_t counterTotal(const std::string& name) const;

  void setWallClockNs(std::int64_t ns) { wall_clock_ns_ = ns; }
  [[nodiscard]] std::int64_t wallClockNs() const { return wall_clock_ns_; }

  // MetricsRegistry delta captured over this run (bus/cluster/gofs/engine
  // feeds); attached by the engines, exported by metrics/report JSON.
  void setMetrics(MetricsRegistry::Snapshot metrics) {
    metrics_ = std::move(metrics);
  }
  [[nodiscard]] const MetricsRegistry::Snapshot& metrics() const {
    return metrics_;
  }

  // Histogram deltas over this run (superstep phase durations,
  // delivered-batch sizes); attached by the engines alongside metrics().
  void setHistograms(MetricsRegistry::HistogramSnapshots histograms) {
    histograms_ = std::move(histograms);
  }
  [[nodiscard]] const MetricsRegistry::HistogramSnapshots& histograms() const {
    return histograms_;
  }

  // Cost-attribution table captured over this run (only when the profiler
  // was armed via --profile=); attached by the engines next to metrics().
  void setAttribution(AttributionTable table) {
    attribution_ = std::move(table);
  }
  [[nodiscard]] bool hasAttribution() const {
    return attribution_.has_value();
  }
  [[nodiscard]] const AttributionTable& attribution() const {
    return *attribution_;
  }
  [[nodiscard]] AttributionTable& attribution() { return *attribution_; }

  // --- aggregations ---

  // One past the last compute timestep recorded; merge-phase records, which
  // are stamped one past the last timestep, do not count.
  [[nodiscard]] std::int32_t numTimesteps() const;
  [[nodiscard]] std::uint64_t totalSupersteps() const {
    return records_.size();
  }
  [[nodiscard]] std::uint64_t totalMessages() const;
  [[nodiscard]] std::uint64_t totalBytes() const;
  // Cross-partition traffic totals — the paper's key overhead signal
  // (Fig. 7b/7d); summed from the per-superstep records.
  [[nodiscard]] std::uint64_t totalCrossPartitionMessages() const;
  [[nodiscard]] std::uint64_t totalCrossPartitionBytes() const;

  // Critical-path time of superstep records in [t, t] or all of them:
  // sum over supersteps of (max over partitions of busy) + modelled comms.
  [[nodiscard]] std::int64_t modelledParallelNs(
      const NetworkModel& net = {}) const;
  [[nodiscard]] std::int64_t modelledTimestepNs(
      Timestep t, const NetworkModel& net = {}) const;

  // Per-partition totals across the run (Fig. 7b/7d).
  struct PartitionUtilization {
    std::int64_t compute_ns = 0;
    std::int64_t send_ns = 0;   // partition overhead
    std::int64_t sync_ns = 0;   // sync overhead (incl. idle at barrier)
    std::int64_t load_ns = 0;
    std::int64_t wait_caused_ns = 0;  // blame, not part of totalNs()
    std::uint64_t stolen = 0;         // tasks other workers ran
    [[nodiscard]] std::int64_t totalNs() const {
      return compute_ns + send_ns + sync_ns + load_ns;
    }
    [[nodiscard]] double computeFraction() const {
      const auto total = totalNs();
      return total == 0 ? 0.0
                        : static_cast<double>(compute_ns) /
                              static_cast<double>(total);
    }
  };
  [[nodiscard]] std::vector<PartitionUtilization> partitionUtilization() const;
  // The dominant straggler: the partition that caused the most measured
  // wait (the lowest index on a tie) and its share of all the wait caused,
  // or nullopt when none caused any.
  struct Straggler {
    PartitionId partition = 0;
    double share = 0.0;
  };
  [[nodiscard]] static std::optional<Straggler> dominantStraggler(
      std::span<const PartitionUtilization> util);

 private:
  std::uint32_t num_partitions_;
  std::vector<SuperstepRecord> records_;
  std::map<std::string, std::vector<std::vector<std::uint64_t>>> counters_;
  std::int64_t wall_clock_ns_ = 0;
  MetricsRegistry::Snapshot metrics_;
  MetricsRegistry::HistogramSnapshots histograms_;
  std::optional<AttributionTable> attribution_;
};

}  // namespace tsg
