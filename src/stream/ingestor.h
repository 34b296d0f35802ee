// StreamIngestor — the streaming front door.
//
// Pipeline:   EventSource → StreamIngestor → SealQueue → engine
//              (ingest thread)                (bounded)   (coordinator)
//
// The ingestor pulls events, routes them into an InstanceBuilder and seals
// the open timestep when the watermark advances (an event lands in a later
// window), when the staged-cell count hits a configured cap (memory guard),
// or when the source ends (remaining planned timesteps seal as carried
// copies so a streamed run covers the same horizon as its batch twin).
// A sealed timestep travels as its changed cells only, already routed to
// their owning partitions at partition-local indices. It goes through the
// bounded SealQueue: a full queue blocks the ingest thread — backpressure —
// so an engine that falls behind bounds memory instead of ballooning it.
//
// StreamingInstanceProvider is the engine-facing end: an InstanceProvider
// whose awaitTimestep (TimestepStream) pops the queue into per-partition
// change logs and answers the dirty-subgraph queries that drive the
// incremental skip. Each partition holds one set of live columns; its
// worker's instanceFor(p, t) patches them to timestep t by swapping log
// records with their cells, forward or backward, so a fault rollback can
// replay earlier timesteps. The logs grow with the changed cells of the
// stream, not with the graph times the timesteps.
//
// Counters: stream.events_ingested, stream.late_events,
// stream.sealed_timesteps, stream.seal_lag_ns and stream.seal_ns
// (histograms), stream.seal_queue_depth (gauge).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
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
  // Indexed by PartitionId: the partition's cells that changed value, at
  // partition-local indices (an edge belongs to its source's partition).
  std::vector<std::vector<CellChange>> changes;
  // Subgraphs with a changed cell, sorted and unique.
  std::vector<SubgraphId> dirty_subgraphs;
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
// (so batch and streamed runs agree on the horizon), awaitTimestep pops the
// seal queue into the change logs, and instanceFor patches partition p's
// live columns to the requested timestep (metered as p's load time).
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

  [[nodiscard]] std::size_t sealedCount() const { return dirty_.size(); }

 private:
  // Partition p's live columns and change log, touched only by p's worker
  // (instanceFor) and by the coordinator while the workers are parked
  // (awaitTimestep appends to the log).
  struct PartitionCursor {
    PartitionInstanceData live;  // holds timestep `at`
    // -1: the zero columns that precede the first sealed timestep.
    Timestep at = -1;
    // log[t] moves the columns between t-1 and t: each record holds the
    // value its cell lacks, so swapping it in steps either way.
    std::vector<std::vector<CellChange>> log;
    std::int64_t load_ns = 0;
  };

  const PartitionedGraph& pg_;
  GraphTemplatePtr tmpl_;
  std::size_t planned_;
  std::int64_t t0_;
  std::int64_t delta_;
  SealQueue& queue_;
  std::vector<PartitionCursor> parts_;          // by PartitionId
  std::vector<std::vector<SubgraphId>> dirty_;  // by sealed timestep
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
