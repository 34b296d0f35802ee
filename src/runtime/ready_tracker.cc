#include "runtime/ready_tracker.h"

#include "common/status.h"

namespace tsg {

ReadyTracker::ReadyTracker(std::int32_t num_partitions)
    : num_partitions_(static_cast<PartitionId>(num_partitions)),
      pending_(static_cast<std::size_t>(num_partitions), 0),
      halted_(static_cast<std::size_t>(num_partitions), 0) {
  TSG_CHECK(num_partitions > 0);
}

void ReadyTracker::beginTimestep() {
  wave_ = 0;
  pending_.assign(pending_.size(), 0);
  halted_.assign(halted_.size(), 0);
}

void ReadyTracker::recordDelivery(PartitionId to, std::uint64_t messages) {
  TSG_CHECK(to < num_partitions_);
  pending_[to] += messages;
}

void ReadyTracker::recordQuiesce(PartitionId p, bool halted) {
  TSG_CHECK(p < num_partitions_);
  halted_[p] = halted ? 1 : 0;
}

std::vector<PartitionId> ReadyTracker::advance() {
  ++wave_;
  std::vector<PartitionId> eligible;
  eligible.reserve(pending_.size());
  for (PartitionId p = 0; p < num_partitions_; ++p) {
    if (pending_[p] > 0 || halted_[p] == 0) {
      eligible.push_back(p);
    } else {
      ++skipped_;
    }
  }
  pending_.assign(pending_.size(), 0);
  return eligible;
}

bool ReadyTracker::terminated() const {
  for (PartitionId p = 0; p < num_partitions_; ++p) {
    if (pending_[p] > 0 || halted_[p] == 0) {
      return false;
    }
  }
  return true;
}

std::uint64_t ReadyTracker::pendingMessages(PartitionId p) const {
  TSG_CHECK(p < num_partitions_);
  return pending_[p];
}

}  // namespace tsg
