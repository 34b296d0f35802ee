#include "runtime/cluster.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "common/perturb.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "runtime/fault_injector.h"

namespace tsg {

namespace {

// Determinism-harness hook: stagger this worker's schedule by a seeded,
// per-(barrier crossing, partition) delay. Off = one relaxed load + branch.
void perturbPoint(std::uint64_t crossing, PartitionId p, std::uint64_t salt) {
  if (check::perturbEnabled()) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(check::perturbDelayNs(crossing, p, salt)));
  }
}

}  // namespace

Cluster::Cluster(std::uint32_t num_partitions)
    : deques_(num_partitions),
      end_ns_(num_partitions, -1),
      last_partition_(num_partitions, kInvalidPartition),
      wait_ns_(num_partitions, 0),
      m_rounds_(MetricsRegistry::global().counter("cluster.rounds")),
      m_barrier_wait_ns_(
          MetricsRegistry::global().counter("cluster.barrier_wait_ns")),
      m_seal_wait_ns_(
          MetricsRegistry::global().counter("cluster.seal_wait_ns")),
      m_waves_(MetricsRegistry::global().counter("cluster.waves")),
      m_steals_(MetricsRegistry::global().counter("cluster.steals")),
      m_ready_wait_ns_(
          MetricsRegistry::global().counter("engine.ready_wait_ns")),
      m_respawns_(MetricsRegistry::global().counter("cluster.respawns")),
      g_ready_depth_(
          MetricsRegistry::global().gauge("cluster.ready_queue_depth")) {
  TSG_CHECK(num_partitions > 0);
  dead_.assign(num_partitions, 0);
  g_worker_depth_.reserve(num_partitions);
  for (PartitionId p = 0; p < num_partitions; ++p) {
    g_worker_depth_.push_back(&MetricsRegistry::global().gauge(
        "cluster.worker_queue_depth", static_cast<std::int32_t>(p)));
  }
  workers_.reserve(num_partitions);
  for (PartitionId p = 0; p < num_partitions; ++p) {
    workers_.emplace_back([this, p] { workerLoop(p); });
  }
}

Cluster::~Cluster() {
  {
    std::lock_guard lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void Cluster::updateReadyDepthLocked() {
  g_ready_depth_.set(static_cast<std::int64_t>(queued_) +
                     static_cast<std::int64_t>(executing_));
}

void Cluster::pushTasksLocked(const std::vector<PartitionId>& parts,
                              std::int32_t wave) {
  const std::int64_t now = steadyNowNs();
  for (const PartitionId p : parts) {
    TSG_CHECK(static_cast<std::size_t>(p) < deques_.size());
    deques_[static_cast<std::size_t>(p)].pushBottom(Task{p, wave, now});
    g_worker_depth_[static_cast<std::size_t>(p)]->set(
        static_cast<std::int64_t>(deques_[static_cast<std::size_t>(p)].size()));
  }
  ++crossing_;
  queued_ += static_cast<std::uint32_t>(parts.size());
  outstanding_ += static_cast<std::uint32_t>(parts.size());
  updateReadyDepthLocked();
  // Work is now queued; if nobody is executing, the idle clock starts
  // ticking until the first pickup.
  if (executing_ == 0 && idle_since_ns_ < 0) {
    idle_since_ns_ = now;
  }
}

bool Cluster::hasWorkLocked(PartitionId w) const {
  // A barriered worker waits on its own deque only: waking on the global
  // count would spin it while its peers' tasks sit queued.
  return sync_ == Sync::kSteal
             ? queued_ > 0
             : !deques_[static_cast<std::size_t>(w)].empty();
}

bool Cluster::popTaskLocked(PartitionId w, Task* out) {
  const std::size_t k = sync_ == Sync::kSteal ? deques_.size() : 1;
  // Own deque first (LIFO, cache-warm), then steal oldest from peers.
  if (auto t = deques_[static_cast<std::size_t>(w)].popBottom()) {
    *out = *t;
    --queued_;
    g_worker_depth_[static_cast<std::size_t>(w)]->set(
        static_cast<std::int64_t>(deques_[static_cast<std::size_t>(w)].size()));
    return true;
  }
  for (std::size_t v = 1; v < k; ++v) {
    const std::size_t victim = (static_cast<std::size_t>(w) + v) % k;
    if (auto t = deques_[victim].stealTop()) {
      *out = *t;
      --queued_;
      g_worker_depth_[victim]->set(
          static_cast<std::int64_t>(deques_[victim].size()));
      return true;
    }
  }
  return false;
}

bool Cluster::drainFaultsLocked(std::string& detail) {
  const bool died = !faults_.empty();
  for (auto& f : std::exchange(faults_, {})) {
    if (!detail.empty()) {
      detail += "; ";
    }
    detail += std::move(f.detail);
  }
  return died;
}

PartitionId Cluster::meterSeal(bool barriered) {
  // The slowest task's end is the seal instant: every other worker's wait
  // runs from the end of its last task to there.
  const auto last = std::max_element(end_ns_.begin(), end_ns_.end());
  const PartitionId straggler =
      last_partition_[static_cast<std::size_t>(last - end_ns_.begin())];
  const std::int64_t seal = *last;
  std::int64_t total = 0;
  for (std::size_t w = 0; w < end_ns_.size(); ++w) {
    wait_ns_[w] = end_ns_[w] < 0 ? 0 : seal - end_ns_[w];
    total += wait_ns_[w];
    end_ns_[w] = -1;
  }
  if (barriered) {
    m_rounds_.increment();
    m_barrier_wait_ns_.add(static_cast<std::uint64_t>(total));
  } else {
    m_waves_.increment();
    m_seal_wait_ns_.add(static_cast<std::uint64_t>(total));
  }
  return straggler;
}

void Cluster::runWaves(Driver& driver, const std::vector<PartitionId>& initial,
                       Sync sync) {
  TraceSpan span("cluster", "cluster.wave_phase");
  TSG_CHECK(!initial.empty());
  std::string detail;
  bool failed = false;
  {
    std::unique_lock lock(mutex_);
    TSG_CHECK_MSG(driver_ == nullptr && outstanding_ == 0,
                  "runWaves() re-entered mid-phase");
    for (PartitionId p = 0; p < dead_.size(); ++p) {
      TSG_CHECK_MSG(dead_[p] == 0,
                    "runWaves() with a dead worker — respawnDead() first");
    }
    driver_ = &driver;
    sync_ = sync;
    wave_ = 0;
    phase_done_ = false;
    abort_ = false;
    abort_detail_.clear();
    executing_ = 0;
    idle_since_ns_ = -1;
    std::fill(end_ns_.begin(), end_ns_.end(), -1);
    std::fill(wait_ns_.begin(), wait_ns_.end(), 0);
    pushTasksLocked(initial, 0);
    work_available_.notify_all();
    phase_done_cv_.wait(lock, [this] { return phase_done_; });
    driver_ = nullptr;
    detail = abort_detail_;
    failed = drainFaultsLocked(detail) || abort_;
  }
  if (failed) {
    throw fault::RecoveryNeeded(detail.empty() ? "worker died during wave"
                                               : detail);
  }
}

std::uint32_t Cluster::respawnDead() {
  std::uint32_t respawned = 0;
  std::vector<PartitionId> to_spawn;
  {
    std::lock_guard lock(mutex_);
    TSG_CHECK_MSG(driver_ == nullptr, "respawnDead() mid-phase");
    for (PartitionId p = 0; p < dead_.size(); ++p) {
      if (dead_[p] != 0) {
        to_spawn.push_back(p);
      }
    }
  }
  for (const PartitionId p : to_spawn) {
    // The dead thread already exited its loop; join reclaims it, then a
    // fresh thread takes over the partition from the next phase.
    workers_[p].join();
    workers_[p] = std::thread([this, p] { workerLoop(p); });
    ++respawned;
    m_respawns_.increment();
  }
  if (respawned > 0) {
    std::lock_guard lock(mutex_);
    for (const PartitionId p : to_spawn) {
      dead_[p] = 0;
    }
  }
  return respawned;
}

std::uint32_t Cluster::aliveWorkers() {
  std::lock_guard lock(mutex_);
  std::uint32_t alive = 0;
  for (const std::uint8_t d : dead_) {
    alive += d == 0 ? 1 : 0;
  }
  return alive;
}

void Cluster::workerLoop(PartitionId p) {
  Tracer::setCurrentThreadName("partition-" + std::to_string(p));
  while (true) {
    std::unique_lock lock(mutex_);
    work_available_.wait(
        lock, [&] { return shutting_down_ || hasWorkLocked(p); });
    if (shutting_down_) {
      return;
    }
    Task task;
    if (!popTaskLocked(p, &task)) {
      continue;  // raced another worker to the last queued task
    }
    const bool barriered = sync_ == Sync::kBarrier;
    const std::uint64_t crossing = crossing_;
    TaskInfo info;
    info.wave = task.wave;
    // Charge only spans where ready work sat with nobody executing. Time
    // covered by workers chewing through earlier tasks is utilization, not
    // wait — the whole point of the schedule is converting barrier idling
    // into stolen work. The idle after a worker's last task is metered at
    // the seal.
    if (!barriered && idle_since_ns_ >= 0) {
      info.ready_wait_ns =
          steadyNowNs() - std::max(task.push_ns, idle_since_ns_);
      idle_since_ns_ = -1;
    }
    info.stolen = task.partition != p;
    ++executing_;
    Driver* driver = driver_;
    lock.unlock();
    if (!barriered) {
      m_ready_wait_ns_.add(static_cast<std::uint64_t>(
          info.ready_wait_ns > 0 ? info.ready_wait_ns : 0));
      if (info.stolen) {
        m_steals_.increment();
      }
    }
    // Perturb the pickup (before the task's CPU metering starts) and the
    // arrival at the seal (after its end is stamped): under the
    // determinism harness every run sees a different worker interleaving.
    perturbPoint(crossing, task.partition, /*salt=*/0);
    bool died = false;
    bool recover = false;
    std::string fault_detail;
    {
      TraceSpan job_span("cluster", "cluster.wave_task", "partition",
                         task.partition);
      try {
        driver->runTask(task.partition, info);
      } catch (const fault::WorkerFault& f) {
        died = true;
        fault_detail = f.what();
      } catch (const fault::RecoveryNeeded& f) {
        recover = true;
        fault_detail = f.what();
      }
    }
    end_ns_[p] = steadyNowNs();
    last_partition_[p] = task.partition;
    perturbPoint(crossing, task.partition, /*salt=*/1);
    lock.lock();
    --executing_;
    updateReadyDepthLocked();
    if (queued_ > 0 && executing_ == 0 && idle_since_ns_ < 0) {
      idle_since_ns_ = steadyNowNs();
    }
    if (died || recover) {
      if (died) {
        dead_[p] = 1;
        faults_.push_back(FaultRecord{task.partition, std::move(fault_detail)});
      }
      abort_ = true;
      if (recover && abort_detail_.empty()) {
        abort_detail_ = std::move(fault_detail);
      }
      // Discard queued work; in-flight tasks drain, then the phase ends.
      for (std::size_t d = 0; d < deques_.size(); ++d) {
        while (deques_[d].popBottom()) {
          --outstanding_;
        }
        g_worker_depth_[d]->set(0);
      }
      queued_ = 0;
      updateReadyDepthLocked();
      idle_since_ns_ = -1;
    }
    if (--outstanding_ == 0) {
      if (abort_) {
        phase_done_ = true;
        phase_done_cv_.notify_all();
      } else {
        // Last finisher seals the wave: delivery + termination check run
        // exclusively (no task in flight), outside the lock.
        const std::int32_t sealed_wave = wave_;
        Driver* sealer = driver_;
        lock.unlock();
        const PartitionId straggler = meterSeal(barriered);
        std::vector<PartitionId> next;
        bool seal_failed = false;
        std::string seal_detail;
        try {
          next = sealer->sealWave(Seal{sealed_wave, wait_ns_, straggler});
        } catch (const fault::RecoveryNeeded& f) {
          seal_failed = true;
          seal_detail = f.what();
        }
        lock.lock();
        if (seal_failed) {
          abort_ = true;
          abort_detail_ = seal_detail;
          phase_done_ = true;
          phase_done_cv_.notify_all();
        } else if (next.empty()) {
          phase_done_ = true;
          phase_done_cv_.notify_all();
        } else {
          wave_ = sealed_wave + 1;
          pushTasksLocked(next, wave_);
          work_available_.notify_all();
        }
      }
    }
    if (died) {
      return;
    }
  }
}

}  // namespace tsg
