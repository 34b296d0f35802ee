// Bench-side observation of the tsgraph engine, from outside the library.
//
// Nothing here is compiled into tsgraph: the decorators wrap the engine's
// public input/output interfaces (InstanceProvider, TimestepStream,
// EventSource, CheckpointStore) and time the calls the engine makes into
// them. ObservedStream and PacedSource always record the per-timestep
// stamps the stream's end-to-end metrics need; the provider and checkpoint
// decorators time every call only when `armed` (the traced run), which is
// what the per-layer metrics are made of.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "gofs/checkpoint.h"
#include "gofs/instance_provider.h"
#include "stream/source.h"

namespace perfbench {

std::int64_t nowNs();
// CPU time of the whole process (every thread), CLOCK_PROCESS_CPUTIME_ID.
std::int64_t processCpuNs();
// Resets the kernel's resident-set high-water mark (/proc/self/clear_refs).
void resetPeakRss();
// Returns the heap's free pages to the kernel, so that a job's peak RSS is
// its own working set rather than what earlier jobs left fragmented.
void trimHeap();
// VmHWM from /proc/self/status, in MiB; 0 when unavailable.
double peakRssMb();

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
// an empty one.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// Wraps an InstanceProvider; armed, sums the wall time spent inside
// instanceFor over all partitions. instanceFor runs concurrently on the
// partition workers, hence the atomic.
class ObservedProvider final : public tsg::InstanceProvider {
 public:
  ObservedProvider(tsg::InstanceProvider& inner, bool armed);

  [[nodiscard]] std::size_t numInstances() const override {
    return inner_.numInstances();
  }
  [[nodiscard]] std::int64_t t0() const override { return inner_.t0(); }
  [[nodiscard]] std::int64_t delta() const override { return inner_.delta(); }
  const tsg::PartitionInstanceData& instanceFor(tsg::PartitionId p,
                                                tsg::Timestep t) override;
  std::int64_t takeLoadNs(tsg::PartitionId p) override {
    return inner_.takeLoadNs(p);
  }

  [[nodiscard]] std::int64_t instanceNs() const { return instance_ns_.load(); }

 private:
  tsg::InstanceProvider& inner_;
  bool armed_;
  std::atomic<std::int64_t> instance_ns_{0};
};

// Wraps a TimestepStream. The engine calls awaitTimestep(t) from its
// coordinator thread before running t, so the call for t+1 marks t as
// finished, and the time spent inside is coordinator time blocked on input.
class ObservedStream final : public tsg::TimestepStream {
 public:
  ObservedStream(tsg::TimestepStream& inner, std::size_t timesteps);

  bool awaitTimestep(tsg::Timestep t) override;
  [[nodiscard]] bool subgraphDirty(tsg::Timestep t,
                                   tsg::SubgraphId sg) const override {
    return inner_.subgraphDirty(t, sg);
  }

  // Steady-clock ns at entry / return of the first awaitTimestep(t); 0 if
  // never called.
  [[nodiscard]] std::int64_t enterNs(tsg::Timestep t) const;
  [[nodiscard]] std::int64_t returnNs(tsg::Timestep t) const;
  [[nodiscard]] std::int64_t blockedNs() const { return blocked_ns_; }

 private:
  tsg::TimestepStream& inner_;
  std::vector<std::int64_t> enter_ns_;
  std::vector<std::int64_t> return_ns_;
  std::int64_t blocked_ns_ = 0;
};

// Wraps an EventSource and turns a replay into an open-loop arrival
// process: event i is released no earlier than epoch + due_offset_ns[i].
// Records how late each release ran against its due time. An empty offset
// list releases every event at once (the closed-loop capacity replay).
class PacedSource final : public tsg::stream::EventSource {
 public:
  PacedSource(tsg::stream::EventSource& inner,
              const std::vector<std::int64_t>& due_offset_ns,
              std::int64_t epoch_ns);

  tsg::Result<tsg::stream::Poll> next(tsg::stream::GraphEvent& out) override;

  // Per released event: release time minus due time (ns, >= 0).
  [[nodiscard]] const std::vector<std::int64_t>& lateNs() const {
    return late_ns_;
  }

 private:
  tsg::stream::EventSource& inner_;
  const std::vector<std::int64_t>& due_offset_ns_;
  std::int64_t epoch_ns_;
  std::size_t released_ = 0;
  std::vector<std::int64_t> late_ns_;
};

// Wraps a FileCheckpointStore; armed, times every save() and records the
// size of the pack it wrote.
class ObservedCheckpointStore final : public tsg::CheckpointStore {
 public:
  ObservedCheckpointStore(tsg::FileCheckpointStore& inner, bool armed)
      : inner_(inner), armed_(armed) {}

  tsg::Status save(const tsg::Checkpoint& ckpt) override;
  tsg::Result<tsg::Checkpoint> loadLatest() override {
    return inner_.loadLatest();
  }
  [[nodiscard]] bool hasCheckpoint() const override {
    return inner_.hasCheckpoint();
  }

  [[nodiscard]] std::uint64_t saves() const { return saves_; }
  [[nodiscard]] const std::vector<double>& saveMs() const { return save_ms_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  tsg::FileCheckpointStore& inner_;
  bool armed_;
  std::uint64_t saves_ = 0;
  std::vector<double> save_ms_;
  std::uint64_t bytes_ = 0;
};

}  // namespace perfbench
