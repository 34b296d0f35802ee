#include "metrics/stats.h"

#include <algorithm>

#include "common/status.h"

namespace tsg {

void RunStats::addCounter(const std::string& name, Timestep t, PartitionId p,
                          std::uint64_t value) {
  TSG_CHECK(t >= 0);
  TSG_CHECK(p < num_partitions_);
  auto& rows = counters_[name];
  if (rows.size() <= static_cast<std::size_t>(t)) {
    rows.resize(static_cast<std::size_t>(t) + 1,
                std::vector<std::uint64_t>(num_partitions_, 0));
  }
  rows[static_cast<std::size_t>(t)][p] += value;
}

std::uint64_t RunStats::counterTotal(const std::string& name) const {
  const auto it = counters_.find(name);
  if (it == counters_.end()) {
    return 0;
  }
  std::uint64_t total = 0;
  for (const auto& row : it->second) {
    for (const auto v : row) {
      total += v;
    }
  }
  return total;
}

std::int32_t RunStats::numTimesteps() const {
  std::int32_t max_t = -1;
  for (const auto& rec : records_) {
    if (!rec.is_merge_phase) {
      max_t = std::max(max_t, rec.timestep);
    }
  }
  return max_t + 1;
}

std::uint64_t RunStats::totalMessages() const {
  std::uint64_t total = 0;
  for (const auto& rec : records_) {
    total += rec.delivered_messages;
  }
  return total;
}

std::uint64_t RunStats::totalBytes() const {
  std::uint64_t total = 0;
  for (const auto& rec : records_) {
    total += rec.delivered_bytes;
  }
  return total;
}

std::uint64_t RunStats::totalCrossPartitionMessages() const {
  std::uint64_t total = 0;
  for (const auto& rec : records_) {
    total += rec.cross_partition_messages;
  }
  return total;
}

std::uint64_t RunStats::totalCrossPartitionBytes() const {
  std::uint64_t total = 0;
  for (const auto& rec : records_) {
    total += rec.cross_partition_bytes;
  }
  return total;
}

namespace {

std::int64_t modelledSuperstepNs(const SuperstepRecord& rec,
                                 const NetworkModel& net) {
  std::int64_t max_busy = 0;
  for (const auto& part : rec.parts) {
    max_busy =
        std::max(max_busy, part.compute_ns + part.send_ns + part.load_ns);
  }
  const auto comm_ns = static_cast<std::int64_t>(
      static_cast<double>(rec.cross_partition_bytes) /
          net.bandwidth_bytes_per_sec * 1e9 +
      static_cast<double>(rec.cross_partition_messages) *
          static_cast<double>(net.per_message_ns));
  return max_busy + comm_ns + net.per_superstep_barrier_ns;
}

}  // namespace

std::int64_t RunStats::modelledParallelNs(const NetworkModel& net) const {
  std::int64_t total = 0;
  for (const auto& rec : records_) {
    total += modelledSuperstepNs(rec, net);
  }
  return total;
}

std::int64_t RunStats::modelledTimestepNs(Timestep t,
                                          const NetworkModel& net) const {
  std::int64_t total = 0;
  for (const auto& rec : records_) {
    if (rec.timestep == t && !rec.is_merge_phase) {
      total += modelledSuperstepNs(rec, net);
    }
  }
  return total;
}

std::vector<RunStats::PartitionUtilization> RunStats::partitionUtilization()
    const {
  std::vector<PartitionUtilization> util(num_partitions_);
  for (const auto& rec : records_) {
    for (PartitionId p = 0; p < rec.parts.size() && p < util.size(); ++p) {
      util[p].compute_ns += rec.parts[p].compute_ns;
      util[p].send_ns += rec.parts[p].send_ns;
      util[p].sync_ns += rec.parts[p].sync_ns;
      util[p].load_ns += rec.parts[p].load_ns;
      util[p].wait_caused_ns += rec.parts[p].wait_caused_ns;
      util[p].stolen += rec.parts[p].stolen;
    }
  }
  return util;
}

std::optional<RunStats::Straggler> RunStats::dominantStraggler(
    std::span<const PartitionUtilization> util) {
  std::int64_t total = 0;
  for (const auto& u : util) {
    total += u.wait_caused_ns;
  }
  const auto it = std::max_element(
      util.begin(), util.end(), [](const auto& a, const auto& b) {
        return a.wait_caused_ns < b.wait_caused_ns;
      });
  if (it == util.end() || it->wait_caused_ns <= 0) {
    return std::nullopt;
  }
  return Straggler{static_cast<PartitionId>(it - util.begin()),
                   static_cast<double>(it->wait_caused_ns) /
                       static_cast<double>(total)};
}

}  // namespace tsg
