// BSP protocol checker — a debug-enableable verification layer for the
// TI-BSP runtime (the correctness story of §III–IV made loud).
//
// The paper's semantics rest on three guarantees the runtime normally takes
// on faith:
//   1. Phase discipline — sends happen only inside a compute phase; the
//      coordinator delivers/injects only between rounds; every worker
//      enters and exits each round exactly once (barrier pairing).
//   2. Superstep visibility — a worker consumes only message batches that
//      were delivered at a strictly earlier superstep; nothing sent in
//      superstep s is readable in s.
//   3. Conservation — per superstep, messages sent == messages delivered ==
//      messages consumed (or explicitly carried to the next timestep);
//      counts and bytes, reconciled against the MetricsRegistry at run end.
//
// One BspChecker instance is created per engine run (per MessageBus / per
// vertex-centric fabric) when checking is enabled. Hooks are threaded
// through MessageBus, both engine families and the engine's wave tasks;
// with checking off every hook site is one null-pointer (or relaxed-load)
// branch — the same cost model as common/trace.
//
// A violation produces a precise diagnostic (rule, partition, timestep,
// superstep, trace flow id when one exists) and by default aborts the
// process. Tests install a collecting handler instead; if the handler
// returns, the checker re-baselines its accounting and keeps going
// best-effort so one violation does not cascade into noise.
//
// Enablement: compile default via -DTSG_CHECK=ON (CMake) which defines
// TSG_CHECK_DEFAULT_ON, overridable either way at runtime with the
// TSG_CHECK environment variable (1/on/true/yes vs 0/off/false/no) or
// programmatically with setEnabled().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/types.h"

namespace tsg {
namespace check {

namespace check_detail {
extern std::atomic<bool> g_check_enabled;
}  // namespace check_detail

// True while protocol checking is on. One relaxed load + branch — the gate
// every hook site tests before touching a checker.
inline bool enabled() {
  return check_detail::g_check_enabled.load(std::memory_order_relaxed);  // tsg:mo(gate read; hooks tolerate a stale on/off)
}
void setEnabled(bool on);

// One detected protocol violation.
struct Violation {
  std::string rule;       // stable kebab-case id, e.g. "send-outside-compute"
  std::string detail;     // full human-readable diagnostic
  PartitionId partition = kInvalidPartition;
  Timestep timestep = -1;
  std::int32_t superstep = -1;
  std::uint64_t flow_id = 0;  // trace flow of the offending batch; 0 = n/a
};

// Called on the thread that detected the violation. The default handler
// (installed when none is set) logs the diagnostic and aborts. A handler
// that returns lets the checker continue best-effort (used by tests).
using ViolationHandler = std::function<void(const Violation&)>;
void setViolationHandler(ViolationHandler handler);  // empty = default
void clearViolationHandler();

class BspChecker {
 public:
  explicit BspChecker(std::uint32_t num_partitions);

  // --- coordinator-side hooks (between rounds) -----------------------------
  void beginTimestep(Timestep t);
  void beginSuperstep(std::int32_t s);
  // Messages injected into an inbox before superstep 0 (seeds, inter-
  // timestep traffic).
  void onInject(std::uint64_t messages, std::uint64_t bytes);
  // The barrier delivery. `leftover_messages` is what still sat undrained in
  // inboxes when deliver() recycled them (abandoned traffic);
  // `leftover_flow` is the trace flow id of one such batch, 0 if none.
  void onDeliver(std::uint64_t messages, std::uint64_t bytes,
                 std::uint64_t leftover_messages, std::uint64_t leftover_flow);
  // The engine reset the fabric (superstep-cap abort): forgive everything
  // currently in flight.
  void onReset();
  // The engine rolled back to a checkpoint after a fault. A killed worker
  // may have died inside its compute phase (round entered, never exited)
  // and in-flight traffic was dropped: close the open phases, re-pair the
  // round counters and re-baseline the conservation accounting. Cumulative
  // delivered totals are kept — the bus registry counters and the checker
  // increment together at delivery, so registry reconciliation stays valid
  // across a recovery.
  void onRecovery();
  // End of the run: all accounting must be back to zero, and — when
  // reconciliation was requested — the checker's cumulative delivered
  // counts must equal the MetricsRegistry's delta.
  void endRun();

  // Compare cumulative delivered traffic against the process-wide
  // "bus.messages_delivered" / "bus.bytes_delivered" counters at endRun().
  // Only valid when this checker's bus is the sole active bus in the
  // process (the serial engine path).
  void enableRegistryReconciliation();

  // --- async-schedule legality mode ----------------------------------------
  // Under the dependency-driven schedule, a superstep is a *wave*: only
  // ready partitions run, and delivery happens at the wave seal instead of
  // a global barrier. The BSP rules above still hold (pairing is
  // per-partition and conservation is aggregate), but two new failure
  // modes appear that BSP cannot exhibit: the scheduler double-scheduling
  // a partition within one wave, and the readiness tracker skipping a
  // partition that the bus still holds messages for. Async mode arms both.
  void enableAsyncMode();
  // The engine skipped partition p this wave; `inbox_pending` is what the
  // bus actually holds for p (ground truth, independent of the tracker).
  void onSkipRound(PartitionId p, std::uint64_t inbox_pending);

  // --- worker-side hooks (inside a round) ----------------------------------
  void enterCompute(PartitionId p);
  void exitCompute(PartitionId p);
  // The engine is about to run a compute unit (subgraph or vertex).
  // was_halted = its halt flag before the engine cleared it; reactivated =
  // the engine's reason for waking it (superstep 0 or pending messages).
  void onComputeUnit(PartitionId p, std::uint64_t unit_id, bool was_halted,
                     bool reactivated);
  void onSend(PartitionId from, PartitionId to, std::uint64_t bytes);
  // A worker drained `messages` delivered to it. stamp_* identify when the
  // batch was delivered: the (timestep, superstep) recorded at delivery,
  // superstep -1 for injected seeds. flow_id links to the batch's trace
  // flow (0 = untracked).
  void onConsume(PartitionId p, std::uint64_t messages, Timestep stamp_t,
                 std::int32_t stamp_s, std::uint64_t flow_id);

  // --- introspection -------------------------------------------------------
  [[nodiscard]] Timestep timestep() const {
    return timestep_.load(std::memory_order_relaxed);  // tsg:mo(introspection read; exactness not required)
  }
  [[nodiscard]] std::int32_t superstep() const {
    return superstep_.load(std::memory_order_relaxed);  // tsg:mo(introspection read; exactness not required)
  }
  [[nodiscard]] std::uint64_t violationCount() const {
    return violations_.load(std::memory_order_relaxed);  // tsg:mo(introspection read; exactness not required)
  }

 private:
  void violate(const char* rule, PartitionId p, std::uint64_t flow_id,
               std::string detail);
  // Zero the per-superstep accounting after a violation so one defect does
  // not cascade into conservation noise.
  void rebaseline();

  struct PartitionState {
    std::atomic<bool> in_compute{false};
    std::atomic<std::uint64_t> rounds_entered{0};
    std::atomic<std::uint64_t> rounds_exited{0};
    // Async mode: entries since the last wave/phase boundary (reset at
    // each beginSuperstep); > 1 means the scheduler ran the partition
    // twice before the seal.
    std::atomic<std::uint64_t> entered_this_wave{0};
  };

  std::vector<PartitionState> parts_;
  std::atomic<Timestep> timestep_{-1};
  std::atomic<std::int32_t> superstep_{-1};

  // Per-superstep conservation (reset at each onDeliver).
  std::atomic<std::uint64_t> sent_messages_{0};
  std::atomic<std::uint64_t> sent_bytes_{0};
  // Delivered or injected but not yet consumed.
  std::atomic<std::uint64_t> outstanding_{0};
  std::atomic<std::uint64_t> consumed_{0};

  // Run-cumulative, for registry reconciliation.
  std::uint64_t total_delivered_messages_ = 0;
  std::uint64_t total_delivered_bytes_ = 0;
  bool reconcile_registry_ = false;
  std::uint64_t registry_messages_base_ = 0;
  std::uint64_t registry_bytes_base_ = 0;
  bool async_mode_ = false;

  std::atomic<std::uint64_t> violations_{0};
};

}  // namespace check
}  // namespace tsg
