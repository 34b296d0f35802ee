// StreamIngestor — the streaming front door (ROADMAP item 2).
//
// Pipeline:   EventSource → StreamIngestor → SealQueue → engine
//              (ingest thread)                (bounded)   (coordinator)
//
// The ingestor pulls events, routes them into an InstanceBuilder and seals
// the open timestep when the watermark advances (an event lands in a later
// window), when the staged-cell count hits a configured cap (memory guard),
// or when the source ends (remaining planned timesteps seal as carried
// copies so a streamed run covers the same horizon as its batch twin).
// Sealed instances travel through the bounded SealQueue: a full queue
// blocks the ingest thread — backpressure — so an engine that falls behind
// bounds memory instead of ballooning it.
//
// StreamingInstanceProvider is the engine-facing end: an InstanceProvider
// whose awaitTimestep (TimestepStream) pops the queue, materializes the
// per-partition slices and answers the dirty-subgraph queries that drive
// the incremental skip. Sealed timesteps are retained for the run's
// lifetime so a fault rollback can replay them.
//
// Counters: stream.events_ingested, stream.late_events,
// stream.sealed_timesteps, stream.seal_lag_ns (histogram),
// stream.seal_queue_depth (gauge).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "gofs/instance_provider.h"
#include "partition/partitioned_graph.h"
#include "stream/builder.h"
#include "stream/source.h"

namespace tsg {
namespace stream {

// One sealed timestep in flight between ingest and execute.
struct SealedTimestep {
  Timestep timestep = 0;
  GraphInstance instance;
  // Indexed by SubgraphId: 1 if any cell of the subgraph changed.
  std::vector<std::uint8_t> subgraph_dirty;
};

// Bounded MPSC-ish handoff (in practice one producer, one consumer).
class SealQueue {
 public:
  explicit SealQueue(std::size_t capacity);

  // Blocks while the queue is full (backpressure on the ingest thread).
  void push(SealedTimestep item);
  // Blocks until an item arrives; false once closed and drained.
  bool pop(SealedTimestep& out);
  void close();

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  // High-water mark of the queue depth over the run (CI asserts this stays
  // within capacity — i.e. that backpressure, not growth, absorbed skew).
  [[nodiscard]] std::size_t maxDepth() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_push_;
  std::condition_variable cv_pop_;
  std::deque<SealedTimestep> items_;
  std::size_t capacity_;
  std::size_t max_depth_ = 0;
  bool closed_ = false;
};

struct IngestorOptions {
  Timestep first_timestep = 0;
  // Timesteps the run expects; the ingestor seals exactly this many (end of
  // source pads with carried copies, extra events beyond the horizon end
  // the stream).
  std::int32_t planned_timesteps = 0;
  // Staged-cell cap per timestep; 0 = watermark-only sealing. When a size
  // trigger fires, later events that still belong to the force-sealed
  // window roll forward into the next open timestep (documented memory-
  // bound semantics; digest-equality setups use watermark-only).
  std::size_t max_staged_cells = 0;
};

class StreamIngestor {
 public:
  StreamIngestor(GraphTemplatePtr tmpl, const PartitionedGraph& pg,
                 std::int64_t t0, std::int64_t delta, SealQueue& queue,
                 IngestorOptions options);

  // Pumps `source` until end-of-stream or the planned horizon. On corrupt
  // input, discards all staged (unsealed) state and returns the error —
  // nothing partial is ever sealed. Always closes the queue on return.
  Status run(EventSource& source);

  [[nodiscard]] std::uint64_t eventsIngested() const {
    return events_ingested_;
  }
  [[nodiscard]] std::uint64_t lateEvents() const { return late_events_; }
  [[nodiscard]] std::uint64_t sealedTimesteps() const {
    return sealed_timesteps_;
  }

 private:
  void sealOpen(bool size_triggered);

  GraphTemplatePtr tmpl_;
  const PartitionedGraph& pg_;
  SealQueue& queue_;
  IngestorOptions options_;
  InstanceBuilder builder_;
  std::int64_t open_since_ns_ = 0;
  bool last_seal_size_triggered_ = false;
  std::uint64_t events_ingested_ = 0;
  std::uint64_t late_events_ = 0;
  std::uint64_t sealed_timesteps_ = 0;
};

// Engine-facing end of the pipeline: numInstances() is the planned count
// (so batch and streamed runs agree on the horizon), instanceFor serves
// materialized per-partition slices, awaitTimestep pops the seal queue.
class StreamingInstanceProvider final : public InstanceProvider,
                                        public TimestepStream {
 public:
  StreamingInstanceProvider(const PartitionedGraph& pg, GraphTemplatePtr tmpl,
                            std::size_t planned_timesteps, std::int64_t t0,
                            std::int64_t delta, SealQueue& queue);

  [[nodiscard]] std::size_t numInstances() const override {
    return planned_;
  }
  [[nodiscard]] std::int64_t t0() const override { return t0_; }
  [[nodiscard]] std::int64_t delta() const override { return delta_; }
  const PartitionInstanceData& instanceFor(PartitionId p,
                                           Timestep t) override;
  std::int64_t takeLoadNs(PartitionId p) override;

  // TimestepStream
  bool awaitTimestep(Timestep t) override;
  [[nodiscard]] bool subgraphDirty(Timestep t, SubgraphId sg) const override;

  // Full-instance view of a sealed timestep (result reassembly, digests).
  [[nodiscard]] const GraphInstance& sealedInstance(Timestep t) const;
  [[nodiscard]] std::size_t sealedCount() const {
    return materialized_.size();
  }

 private:
  struct MaterializedTimestep {
    GraphInstance instance;
    std::vector<PartitionInstanceData> parts;  // by PartitionId
    std::vector<std::uint8_t> subgraph_dirty;  // by SubgraphId
  };

  const PartitionedGraph& pg_;
  GraphTemplatePtr tmpl_;
  std::size_t planned_;
  std::int64_t t0_;
  std::int64_t delta_;
  SealQueue& queue_;
  // unique_ptr elements: push_back must not invalidate references handed
  // out by instanceFor.
  std::vector<std::unique_ptr<MaterializedTimestep>> materialized_;
  std::vector<std::int64_t> load_ns_;  // per partition
};

// RAII ingest thread: runs ingestor.run(source) and joins on destruction.
class IngestThread {
 public:
  IngestThread(StreamIngestor& ingestor, EventSource& source);
  ~IngestThread() { (void)join(); }

  IngestThread(const IngestThread&) = delete;
  IngestThread& operator=(const IngestThread&) = delete;

  // Joins (idempotent) and returns the ingest Status.
  Status join();

 private:
  Status status_;
  bool joined_ = false;
  // Declared (and therefore initialized) last: the worker starts inside
  // this member's constructor and writes status_, so every other member
  // must already be alive — a fast-failing ingest would otherwise race
  // its error against status_'s own default construction.
  std::thread thread_;  // NOLINT(tsg-naked-thread)
};

// One streamed run's pipeline, owned in construction order: seal queue,
// ingestor, engine-facing provider. run() starts an ingest thread over
// `source`, hands the provider to `consume`, then drains every seal the
// consumer never popped (a while-mode early exit, an engine without a
// timestep loop, an error) so the ingest thread's backpressure block
// releases, and joins it. Returns the ingest Status.
class StreamPipeline {
 public:
  using Consumer = std::function<void(StreamingInstanceProvider&)>;

  StreamPipeline(const PartitionedGraph& pg, std::size_t planned_timesteps,
                 std::int64_t t0, std::int64_t delta,
                 std::size_t queue_capacity, std::size_t max_staged_cells = 0);

  Status run(EventSource& source, const Consumer& consume);
  // Replays `events` through a closed memory source.
  Status run(std::vector<GraphEvent> events, const Consumer& consume);

  [[nodiscard]] StreamIngestor& ingestor() { return ingestor_; }
  [[nodiscard]] StreamingInstanceProvider& provider() { return provider_; }
  [[nodiscard]] SealQueue& queue() { return queue_; }

 private:
  SealQueue queue_;
  StreamIngestor ingestor_;
  StreamingInstanceProvider provider_;
};

}  // namespace stream
}  // namespace tsg
