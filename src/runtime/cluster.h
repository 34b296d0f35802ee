// Cluster — the simulated distributed substrate.
//
// One long-lived worker thread per partition stands in for the paper's one
// EC2 VM per partition. The coordinator drives it two ways:
//
//  * run(job) — a barriered round: job(p) on every worker concurrently,
//    blocking until all finish, like a BSP compute phase ending at a
//    barrier. Used for BSP supersteps, end-of-timestep rounds and
//    maintenance rounds under either schedule. Per partition it records
//    busy time and barrier (sync) wait — the raw series behind Fig. 7b/7d's
//    compute / sync split.
//  * runWaves(driver, initial) — the dependency-driven phase behind
//    `--schedule=async`. A wave is the set of partitions actually ready for
//    superstep s (per ReadyTracker). Each wave's tasks are dealt to their
//    owning workers' steal-deques; an idle worker whose own deque is dry
//    steals whole partition-tasks from stragglers instead of blocking at a
//    barrier. The last task to finish a wave *seals* it — runs the driver's
//    delivery/termination step exclusively — and pushes the next wave's
//    tasks, so there is no coordinator rendezvous per superstep.
//
// Wave tasks are whole (partition, superstep) units — programs are stateful
// per partition, so a partition's subgraphs must run on one thread, in
// local order. That granularity also makes async output byte-identical to
// BSP: one thread replays exactly the BSP send sequence of that partition.
//
// Fault model: a job or task that throws fault::WorkerFault kills the
// executing worker thread (even if the task was stolen — the thief's host
// dies). A round still completes (the barrier never hangs); a wave phase
// discards its queued tasks and lets in-flight ones drain. Either entry
// point then throws fault::RecoveryNeeded, and the coordinator rolls back
// and calls respawnDead() before the next round.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "graph/types.h"

namespace tsg {

class Cluster {
 public:
  struct RoundTiming {
    std::int64_t busy_ns = 0;  // CPU time consumed by job(p)
    std::int64_t sync_ns = 0;  // own finish -> slowest worker's finish (wall)
  };

  struct TaskInfo {
    std::int32_t wave = 0;
    // Scheduler gap time ending at this task's pickup: the wall-clock span
    // during which ready tasks sat queued while NO worker was executing
    // (zero when some worker was busy the whole time). Time covered by
    // workers chewing through earlier tasks is utilization, not wait —
    // that is exactly the barrier wait the async schedule converts into
    // stolen work. Summed into engine.ready_wait_ns, the async analogue
    // of cluster.barrier_wait_ns (which likewise counts only idle-at-
    // barrier time, never between-round wake latency).
    std::int64_t ready_wait_ns = 0;
    bool stolen = false;  // executed by a worker other than the owner
  };

  // The engine side of a wave phase. runTask does the partition's work for
  // one superstep (and its own CPU metering); sealWave is invoked exactly
  // once per wave, by the last finisher, with no task running — it
  // delivers, commits the record and returns the next wave's partitions
  // (empty = phase complete). Either may throw WorkerFault (runTask only)
  // or RecoveryNeeded.
  class Driver {
   public:
    virtual ~Driver() = default;
    virtual void runTask(PartitionId p, const TaskInfo& info) = 0;
    virtual std::vector<PartitionId> sealWave(std::int32_t wave) = 0;
  };

  explicit Cluster(std::uint32_t num_partitions);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Runs job(p) on every partition worker; blocks until the round ends.
  // The returned reference is valid until the next run() call. All workers
  // must be alive (respawnDead() after a fault). Throws
  // fault::RecoveryNeeded if a worker died during the round.
  const std::vector<RoundTiming>& run(
      const std::function<void(PartitionId)>& job);

  // Runs waves starting with `initial` at `first_wave` until sealWave
  // returns empty. Throws fault::RecoveryNeeded if a worker died or
  // sealWave threw; the engine rolls back and calls respawnDead().
  void runWaves(Driver& driver, const std::vector<PartitionId>& initial,
                std::int32_t first_wave = 0);

  // Joins every dead worker thread and spawns a replacement; returns how
  // many were respawned. Must be called between rounds.
  std::uint32_t respawnDead();
  // Number of workers currently alive (for tests).
  [[nodiscard]] std::uint32_t aliveWorkers();

 private:
  struct Task {
    PartitionId partition = kInvalidPartition;
    std::int32_t wave = 0;
    std::int64_t push_ns = 0;
  };

  enum class Mode : std::uint8_t { kIdle, kRound, kWaves };

  void workerLoop(PartitionId p, std::uint64_t start_round);
  // Called with mutex_ held: push one task per partition for `wave`.
  void pushTasksLocked(const std::vector<PartitionId>& parts,
                       std::int32_t wave);
  // Steal-scan all deques starting at w's own. Mutex must be held.
  bool popTaskLocked(PartitionId w, Task* out);
  // Refreshes cluster.ready_queue_depth from queued_ + executing_ (tasks
  // admitted to the current wave and not yet completed). Mutex must be held.
  void updateReadyDepthLocked();
  // Called with mutex_ held: drains the death records into `detail` (dead_
  // stays set for respawnDead) so a stale record cannot fail the rerun
  // after the engine recovers. Returns whether any worker died.
  bool drainFaultsLocked(std::string& detail);

  struct FaultRecord {
    PartitionId partition = kInvalidPartition;
    std::string detail;
  };

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable phase_done_cv_;

  Mode mode_ = Mode::kIdle;
  bool shutting_down_ = false;
  std::vector<std::uint8_t> dead_;   // guarded by mutex_
  std::vector<FaultRecord> faults_;  // guarded by mutex_

  // Round state.
  const std::function<void(PartitionId)>* job_ = nullptr;
  std::uint64_t round_ = 0;
  std::uint32_t round_remaining_ = 0;

  // Wave-phase state.
  Driver* driver_ = nullptr;
  std::int32_t wave_ = 0;
  std::uint32_t outstanding_ = 0;  // tasks pushed, not yet completed
  std::uint32_t queued_ = 0;       // tasks sitting in deques
  bool phase_done_ = false;
  bool abort_ = false;
  std::string abort_detail_;

  std::vector<StealDeque<Task>> deques_;  // all access under mutex_
  // Gap-time accounting for TaskInfo::ready_wait_ns (guarded by mutex_):
  // how many workers are currently inside runTask, and — when tasks are
  // queued with nobody executing — when that idle span began (-1 = none).
  std::uint32_t executing_ = 0;
  std::int64_t idle_since_ns_ = -1;
  std::vector<std::int64_t> end_ns_;
  std::vector<std::int64_t> cpu_busy_ns_;
  std::vector<RoundTiming> timings_;

  // Cached handles: run() executes once per superstep, so it bumps the
  // cells directly instead of re-doing the registry name lookup.
  MetricsRegistry::Counter& m_rounds_;
  MetricsRegistry::Counter& m_barrier_wait_ns_;
  MetricsRegistry::Counter& m_waves_;
  MetricsRegistry::Counter& m_steals_;
  MetricsRegistry::Counter& m_ready_wait_ns_;
  MetricsRegistry::Counter& m_respawns_;
  // Sampled scheduler levels for live telemetry: cluster.ready_queue_depth
  // is the number of (partition, superstep) tasks admitted to the current
  // wave and not yet completed (queued in deques + executing); the
  // per-worker cluster.worker_queue_depth gauges expose each deque's depth
  // so `tsgcli top` can show where backlog sits. Updated under mutex_ at
  // push/pop/completion transitions — no new synchronization.
  MetricsRegistry::Gauge& g_ready_depth_;
  std::vector<MetricsRegistry::Gauge*> g_worker_depth_;
  std::vector<std::thread> workers_;
};

}  // namespace tsg
