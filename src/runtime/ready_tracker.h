// Per-partition readiness for the async (dependency-driven) schedule.
//
// The global BSP barrier answers one question: "has every message bound for
// superstep s+1 been sent?" The message-conservation accounting the checker
// already performs (sends counted per destination at splice time) answers
// the same question per partition: once every wave-s task has quiesced, the
// per-destination delivery counts ARE the inbound set for wave s+1, and a
// partition with no pending messages and all subgraphs halted has nothing
// to do — it is skipped instead of being marched through an empty round.
//
// The tracker is deliberately single-threaded: the wave scheduler
// (Cluster::runWaves's seal step) owns the lock and calls into it, which keeps
// the readiness rule a pure function that unit tests can drive directly
// with out-of-order delivery sequences.
#pragma once

#include <cstdint>
#include <vector>

#include "partition/partitioned_graph.h"

namespace tsg {

class ReadyTracker {
 public:
  explicit ReadyTracker(std::int32_t num_partitions);

  // Resets to wave 0 of a fresh timestep. Superstep 0 runs unconditionally
  // on every partition (it consumes seeds and resets halt flags), exactly
  // like the BSP engine's `s == 0` activity rule.
  void beginTimestep();

  // `messages` messages were sent during the current wave, bound for
  // partition `to` at wave() + 1. Senders finish in any order; the count
  // only becomes the readiness signal when the wave seals.
  void recordDelivery(PartitionId to, std::uint64_t messages);

  // Partition p finished its current-wave task; `halted` = every subgraph
  // it owns voted to halt (and nothing reactivated it this wave).
  void recordQuiesce(PartitionId p, bool halted);

  // Seals the current wave and advances: pending deliveries become the
  // inbound set of the new wave. Returns the partitions eligible for the
  // new wave — those with pending messages (reactivation) or unhalted
  // subgraphs (zero-message supersteps still run, as in BSP). Partitions
  // not returned are skipped; skippedRounds() accumulates them.
  std::vector<PartitionId> advance();

  [[nodiscard]] std::int32_t wave() const { return wave_; }

  // True when no partition is eligible: all halted and nothing in flight.
  // Matches the BSP termination rule (all_halted && delivered == 0).
  [[nodiscard]] bool terminated() const;

  // Cumulative (partition, wave) slots skipped by advance().
  [[nodiscard]] std::int64_t skippedRounds() const { return skipped_; }

  // Messages pending for p's next wave (test/diagnostic hook).
  [[nodiscard]] std::uint64_t pendingMessages(PartitionId p) const;

 private:
  PartitionId num_partitions_;
  std::int32_t wave_ = 0;
  std::vector<std::uint64_t> pending_;  // per-partition, for wave_ + 1
  std::vector<std::uint8_t> halted_;    // per-partition, as of last quiesce
  std::int64_t skipped_ = 0;
};

}  // namespace tsg
