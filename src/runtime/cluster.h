// Cluster — the simulated distributed substrate.
//
// One long-lived worker thread per partition stands in for the paper's one
// EC2 VM per partition. Every phase — BSP and async compute supersteps,
// Merge-BSP supersteps, end-of-timestep and maintenance — runs through one
// entry point, runWaves(driver, initial, sync). A wave is the set of
// partitions that run superstep s; each wave's tasks are dealt to their
// owning workers' deques. The last task to finish a wave *seals* it — runs
// the driver's delivery/termination step exclusively — and pushes the next
// wave's tasks, so there is no coordinator rendezvous per superstep.
//
// The phase's Sync decides what happens between the push and the seal:
//
//  * kBarrier — the BSP barrier. Tasks stay on their owners (nothing is
//    stolen) and the seal is the barrier: the cluster hands it each
//    partition's barrier wait (the last task's end minus its own end), the
//    raw series behind Fig. 7b/7d's compute / sync split. One sealed
//    barriered wave is one cluster.rounds.
//  * kSteal — the dependency-driven waves behind `--schedule=async`: an
//    idle worker whose own deque is dry steals whole partition-tasks from
//    stragglers instead of waiting (cluster.waves, cluster.steals,
//    engine.ready_wait_ns). A worker with nothing left to steal idles until
//    the wave's last task ends; the seal meters that as its seal wait
//    (cluster.seal_wait_ns).
//
// Either way the seal names the wave's straggler — the partition whose
// task ended last, the one every metered wait was spent waiting for.
//
// Wave tasks are whole (partition, superstep) units — programs are stateful
// per partition, so a partition's subgraphs must run on one thread, in
// local order. That granularity also makes async output byte-identical to
// BSP: one thread replays exactly the BSP send sequence of that partition.
//
// Fault model: a task that throws fault::WorkerFault kills the executing
// worker thread (even if the task was stolen — the thief's host dies). The
// phase discards its queued tasks, lets in-flight ones drain and throws
// fault::RecoveryNeeded; the coordinator rolls back and calls respawnDead()
// before the next phase.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/steal_deque.h"
#include "graph/types.h"

namespace tsg {

class Cluster {
 public:
  enum class Sync : std::uint8_t {
    kBarrier,  // owner-only tasks; the seal is a metered barrier
    kSteal,    // idle workers steal; pickups metered as ready wait
  };

  struct TaskInfo {
    std::int32_t wave = 0;
    // kSteal only. Scheduler gap time ending at this task's pickup: the
    // wall-clock span during which ready tasks sat queued while NO worker
    // was executing (zero when some worker was busy the whole time). Time
    // covered by workers chewing through earlier tasks is utilization, not
    // wait — that is exactly the barrier wait the async schedule converts
    // into stolen work. Summed into engine.ready_wait_ns, the async
    // analogue of cluster.barrier_wait_ns (which likewise counts only
    // idle-at-barrier time, never between-wave wake latency).
    std::int64_t ready_wait_ns = 0;
    bool stolen = false;  // executed by a worker other than the owner
  };

  // What the seal hands the driver about the wave it closes.
  struct Seal {
    std::int32_t wave = 0;
    // Per worker (= its home partition): the wall-clock span from the end
    // of the last task it ran in this wave to the end of the wave's last
    // task — its barrier wait under kBarrier (cluster.barrier_wait_ns),
    // its seal wait under kSteal (cluster.seal_wait_ns). Zero for a worker
    // that ran no task in the wave.
    std::span<const std::int64_t> wait_ns;
    // The partition whose task ended last (the lowest worker's on a tie).
    PartitionId straggler = kInvalidPartition;
  };

  // The engine side of a phase. runTask does the partition's work for one
  // superstep (and its own CPU metering); sealWave is invoked exactly once
  // per wave, by the last finisher, with no task running — it delivers,
  // commits the record and returns the next wave's partitions (empty =
  // phase complete). Either may throw RecoveryNeeded; runTask may also
  // throw WorkerFault.
  class Driver {
   public:
    virtual ~Driver() = default;
    virtual void runTask(PartitionId p, const TaskInfo& info) = 0;
    virtual std::vector<PartitionId> sealWave(const Seal& seal) = 0;
  };

  explicit Cluster(std::uint32_t num_partitions);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Runs waves starting with `initial` (wave 0) until sealWave returns
  // empty. All workers must be alive (respawnDead() after a fault). Throws
  // fault::RecoveryNeeded if a worker died or sealWave threw; the engine
  // rolls back and calls respawnDead().
  void runWaves(Driver& driver, const std::vector<PartitionId>& initial,
                Sync sync);

  // Joins every dead worker thread and spawns a replacement; returns how
  // many were respawned. Must be called between phases.
  std::uint32_t respawnDead();
  // Number of workers currently alive (for tests).
  [[nodiscard]] std::uint32_t aliveWorkers();

 private:
  struct Task {
    PartitionId partition = kInvalidPartition;
    std::int32_t wave = 0;
    std::int64_t push_ns = 0;
  };

  void workerLoop(PartitionId p);
  // Called with mutex_ held: push one task per partition for `wave`.
  void pushTasksLocked(const std::vector<PartitionId>& parts,
                       std::int32_t wave);
  // Whether worker w has a task to pick up. Mutex must be held.
  bool hasWorkLocked(PartitionId w) const;
  // Own deque first, then (kSteal only) steal-scan the peers. Mutex must be
  // held.
  bool popTaskLocked(PartitionId w, Task* out);
  // Refreshes cluster.ready_queue_depth from queued_ + executing_ (tasks
  // admitted to the current wave and not yet completed). Mutex must be held.
  void updateReadyDepthLocked();
  // Fills wait_ns_ for the sealed wave from end_ns_, meters it as barrier
  // or seal wait, and returns the wave's straggler partition. Runs in the
  // sealing worker with no task in flight.
  PartitionId meterSeal(bool barriered);
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

  bool shutting_down_ = false;
  std::vector<std::uint8_t> dead_;   // guarded by mutex_
  std::vector<FaultRecord> faults_;  // guarded by mutex_

  // Phase state (guarded by mutex_). driver_ is non-null while a phase runs.
  Driver* driver_ = nullptr;
  Sync sync_ = Sync::kBarrier;
  std::int32_t wave_ = 0;
  // Waves pushed over the Cluster's lifetime: the perturbation key, so each
  // barrier crossing draws fresh delays across phases and timesteps.
  std::uint64_t crossing_ = 0;
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
  // Per worker: wall-clock end of the last task it ran in the current wave
  // (-1 = none) and that task's partition, and its wait at the last seal.
  // Written by the worker, read by the sealer; the completion count under
  // mutex_ orders the two.
  std::vector<std::int64_t> end_ns_;
  std::vector<PartitionId> last_partition_;
  std::vector<std::int64_t> wait_ns_;

  // Cached handles: seals run once per superstep, so they bump the cells
  // directly instead of re-doing the registry name lookup.
  MetricsRegistry::Counter& m_rounds_;
  MetricsRegistry::Counter& m_barrier_wait_ns_;
  MetricsRegistry::Counter& m_seal_wait_ns_;
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
