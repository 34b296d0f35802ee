// Fault injection — the controlled failure source for recovery testing.
//
// A FaultInjector holds a plan of FaultSpecs, armed from code, the
// `--inject=` CLI flag or the TSG_INJECT environment variable. Each spec
// names a site (where in the TI-BSP round structure the fault strikes), an
// action (what goes wrong), and optional partition / timestep filters plus a
// fire budget. Instrumented sites ask `fire()` whether a planned fault
// matches the current (site, partition, timestep) point; a match consumes
// one fire from the spec's budget.
//
// Cost model mirrors trace/check: when no plan is armed (the production
// default) every instrumented site is one relaxed atomic load and a branch.
//
// Actions by site:
//   compute     kill (worker dies mid-superstep), delay (straggler sleep)
//   barrier     kill (worker dies after compute, before the barrier)
//   deliver     kill, drop (batch lost in flight), delay (slow fabric)
//   slice-load  kill (worker dies loading its instance), fail (transient
//               GoFS read error — the provider retries with backoff)
//
// `kill` and `drop` surface as WorkerFault / RecoveryNeeded and exercise
// the checkpoint-rollback path; `delay` and `fail` are transient and must
// be absorbed without recovery.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/types.h"

namespace tsg {
namespace fault {

enum class Site : std::uint8_t { kCompute, kBarrier, kDeliver, kSliceLoad };
enum class Action : std::uint8_t { kKill, kDrop, kDelay, kFailLoad };

// Stable lowercase names ("compute", "slice-load", "kill", ...).
std::string_view siteName(Site site);
std::string_view actionName(Action action);

// One planned fault. Default-constructed filters are wildcards: any
// partition, any timestep, firing once.
struct FaultSpec {
  Site site = Site::kCompute;
  Action action = Action::kKill;
  PartitionId partition = kInvalidPartition;  // kInvalidPartition = any
  Timestep timestep = -1;                     // -1 = any
  std::int32_t fires = 1;                     // remaining fire budget
  std::int64_t delay_us = 2000;               // for kDelay
};

// Thrown out of a worker job or wave task when a kill fault fires.
// Cluster::workerLoop catches it, records the death and lets the thread
// exit; Cluster::run / Cluster::runWaves then raise RecoveryNeeded.
class WorkerFault : public std::exception {
 public:
  WorkerFault(PartitionId partition, Timestep timestep, Site site);

  [[nodiscard]] const char* what() const noexcept override {
    return what_.c_str();
  }
  [[nodiscard]] PartitionId partition() const { return partition_; }
  [[nodiscard]] Timestep timestep() const { return timestep_; }
  [[nodiscard]] Site site() const { return site_; }

 private:
  PartitionId partition_;
  Timestep timestep_;
  Site site_;
  std::string what_;
};

// Raised coordinator-side when the current timestep cannot complete (a
// worker died, or a delivery batch was dropped). Engines catch it, roll all
// partitions back to the last checkpoint and re-run.
class RecoveryNeeded : public std::exception {
 public:
  explicit RecoveryNeeded(std::string detail) : what_(std::move(detail)) {}

  [[nodiscard]] const char* what() const noexcept override {
    return what_.c_str();
  }

 private:
  std::string what_;
};

class FaultInjector {
 public:
  // The process-wide injector (one per simulated cluster).
  static FaultInjector& global();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // True while any spec still has fire budget. The one-branch gate every
  // instrumented site checks first.
  [[nodiscard]] bool armed() const {
    return armed_.load(std::memory_order_relaxed);  // tsg:mo(gate read; sites take mutex_ before acting)
  }

  // Installs a plan, replacing any previous one. The seed drives delay
  // jitter so a given plan misbehaves identically run to run.
  void arm(std::vector<FaultSpec> plan, std::uint64_t seed = 42);
  void disarm();

  // Consumes and returns the first armed spec matching (site, partition,
  // timestep) — and, when `filter` is set, that exact action. Call sites
  // that handle only one action pass the filter so a co-located site with a
  // different action (e.g. slice-load kill vs slice-load fail) is not
  // swallowed by the wrong hook.
  std::optional<FaultSpec> fire(Site site, PartitionId partition,
                                Timestep timestep,
                                std::optional<Action> filter = std::nullopt);

  // Total faults fired since the last arm().
  [[nodiscard]] std::uint64_t totalFired() const;

 private:
  FaultInjector() = default;

  mutable std::mutex mutex_;
  std::atomic<bool> armed_{false};
  std::vector<FaultSpec> plan_;
  std::uint64_t fired_ = 0;
  std::optional<Rng> rng_;
};

// Parses a comma-separated fault plan, e.g.
//   "kill@compute:p1:t2"            kill partition 1's worker in timestep 2
//   "drop@deliver:t1"               drop one delivery batch in timestep 1
//   "fail@slice-load:p0:t1:x2"      fail partition 0's slice load twice
//   "delay@deliver:d5000"           delay one delivery by 5000 us
// Segments after action@site are order-free: pN (partition), tN (timestep),
// xN (fire budget), dN (delay microseconds).
Result<std::vector<FaultSpec>> parseFaultPlan(const std::string& text);

// Arms the global injector from TSG_INJECT (and TSG_INJECT_SEED) if set.
// Returns true when a plan was armed; aborts on a malformed plan so a typo
// never silently runs fault-free.
bool armFromEnv();

}  // namespace fault
}  // namespace tsg
