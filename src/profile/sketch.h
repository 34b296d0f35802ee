// SpaceSavingSketch — fixed-memory heavy-hitter tracking (Metwally et al.,
// "Efficient Computation of Frequent and Top-k Elements in Data Streams").
//
// The profiler cannot afford one accumulator per vertex (millions of keys,
// most of them cold), so per-vertex compute-ns and message fan-out feed this
// sketch instead: `capacity` monitored entries, and a stream item that is
// not monitored evicts the current minimum, inheriting its count as `error`.
//
// Guarantees (W = total offered weight, k = capacity):
//   * count - error <= true weight <= count for every monitored key;
//   * error <= W / k, so any key whose true weight exceeds W / k is
//     guaranteed to be monitored (asserted in tests/test_profile.cc).
//
// Not thread-safe; a vertex engine keeps one sketch pair per partition
// for its run (profile::VertexSketches), offered to only by that
// partition's task, and merges them after the run
// (profile::foldVertexSketches).
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace tsg {

class SpaceSavingSketch {
 public:
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t count = 0;  // upper bound on the key's true weight
    std::uint64_t error = 0;  // overcount inherited from evictions
  };

  explicit SpaceSavingSketch(std::size_t capacity)
      : capacity_(std::max<std::size_t>(1, capacity)) {
    index_.reserve(capacity_);
    entries_.reserve(capacity_);
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t totalWeight() const { return total_weight_; }

  void offer(std::uint64_t key, std::uint64_t weight) {
    offerWithError(key, weight, 0);
  }

  // Folds another sketch in (per-partition shards into a run total). Each
  // foreign entry is offered as (count, error), which preserves the
  // count - error <= true <= count envelope; the combined error stays
  // bounded by W_total / k.
  void merge(const SpaceSavingSketch& other) {
    for (const Entry& e : other.entries_) {
      offerWithError(e.key, e.count, e.error);
    }
  }

  // Monitored entries, heaviest first (ties broken by key for determinism).
  [[nodiscard]] std::vector<Entry> topK() const {
    std::vector<Entry> out = entries_;
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      return a.count != b.count ? a.count > b.count : a.key < b.key;
    });
    return out;
  }

 private:
  void offerWithError(std::uint64_t key, std::uint64_t weight,
                      std::uint64_t error) {
    total_weight_ += weight;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      entries_[it->second].count += weight;
      entries_[it->second].error += error;
      return;
    }
    if (entries_.size() < capacity_) {
      index_.emplace(key, entries_.size());
      entries_.push_back(Entry{key, weight, error});
      return;
    }
    // Evict the minimum-count entry; the newcomer inherits its count as
    // error (the defining space-saving move).
    std::size_t min_i = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].count < entries_[min_i].count) {
        min_i = i;
      }
    }
    const std::uint64_t evicted = entries_[min_i].count;
    index_.erase(entries_[min_i].key);
    index_.emplace(key, min_i);
    entries_[min_i] = Entry{key, evicted + weight, evicted + error};
  }

  std::size_t capacity_;
  std::vector<Entry> entries_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::uint64_t total_weight_ = 0;
};

}  // namespace tsg
