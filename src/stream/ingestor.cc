#include "stream/ingestor.h"

#include <utility>

#include "common/metrics.h"
#include "common/stopwatch.h"

namespace tsg {
namespace stream {

// ---------------------------------------------------------------------------
// SealQueue
// ---------------------------------------------------------------------------

SealQueue::SealQueue(std::size_t capacity) : capacity_(capacity) {
  TSG_CHECK_MSG(capacity_ > 0, "seal queue capacity must be >= 1");
}

void SealQueue::push(SealedTimestep item) {
  std::size_t depth = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_push_.wait(lock,
                  [this] { return items_.size() < capacity_ || closed_; });
    TSG_CHECK_MSG(!closed_, "push into a closed seal queue");
    items_.push_back(std::move(item));
    depth = items_.size();
    max_depth_ = std::max(max_depth_, depth);
  }
  MetricsRegistry::global()
      .gauge("stream.seal_queue_depth")
      .set(static_cast<std::int64_t>(depth));
  cv_pop_.notify_one();
}

bool SealQueue::pop(SealedTimestep& out) {
  std::size_t depth = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_pop_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) {
      return false;
    }
    out = std::move(items_.front());
    items_.pop_front();
    depth = items_.size();
  }
  MetricsRegistry::global()
      .gauge("stream.seal_queue_depth")
      .set(static_cast<std::int64_t>(depth));
  cv_push_.notify_one();
  return true;
}

void SealQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_push_.notify_all();
  cv_pop_.notify_all();
}

std::size_t SealQueue::maxDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_depth_;
}

// ---------------------------------------------------------------------------
// StreamIngestor
// ---------------------------------------------------------------------------

StreamIngestor::StreamIngestor(GraphTemplatePtr tmpl,
                               const PartitionedGraph& pg, std::int64_t t0,
                               std::int64_t delta, SealQueue& queue,
                               IngestorOptions options)
    : tmpl_(tmpl),
      pg_(pg),
      queue_(queue),
      options_(options),
      builder_(std::move(tmpl), t0, delta, options.first_timestep),
      open_since_ns_(steadyNowNs()) {
  TSG_CHECK_MSG(options_.planned_timesteps > 0,
                "planned_timesteps must be positive");
}

void StreamIngestor::sealOpen(bool size_triggered) {
  auto sealed = builder_.seal();
  SealedTimestep item;
  item.timestep = sealed.instance.timestep();
  item.subgraph_dirty.assign(pg_.numSubgraphs(), 0);
  for (const VertexIndex v : sealed.dirty_vertices) {
    item.subgraph_dirty[pg_.subgraphOfVertex(v)] = 1;
  }
  for (const EdgeIndex e : sealed.dirty_edges) {
    // An edge-cell change dirties both endpoint subgraphs: edge values are
    // readable from whichever side owns the slot, so stay conservative.
    item.subgraph_dirty[pg_.subgraphOfVertex(tmpl_->edgeSrc(e))] = 1;
    item.subgraph_dirty[pg_.subgraphOfVertex(tmpl_->edgeDst(e))] = 1;
  }
  item.instance = std::move(sealed.instance);

  auto& registry = MetricsRegistry::global();
  registry.counter("stream.sealed_timesteps").increment();
  registry.histogram("stream.seal_lag_ns")
      .record(static_cast<std::uint64_t>(
          std::max<std::int64_t>(0, steadyNowNs() - open_since_ns_)));
  ++sealed_timesteps_;
  last_seal_size_triggered_ = size_triggered;

  queue_.push(std::move(item));  // blocks when full: backpressure
  open_since_ns_ = steadyNowNs();
}

Status StreamIngestor::run(EventSource& source) {
  auto& registry = MetricsRegistry::global();
  const auto planned =
      static_cast<std::uint64_t>(options_.planned_timesteps);
  const Timestep horizon =
      options_.first_timestep + options_.planned_timesteps;
  Status result = Status::ok();
  GraphEvent ev;
  while (sealed_timesteps_ < planned) {
    auto poll = source.next(ev);
    if (!poll.isOk()) {
      result = poll.status();
      break;
    }
    if (poll.value() == Poll::kEnd) {
      break;
    }
    ++events_ingested_;
    registry.counter("stream.events_ingested").increment();
    const Timestep et = builder_.timestepOf(ev.timestamp);
    if (et >= horizon) {
      break;  // beyond the planned window: the stream is done for this run
    }
    if (et < builder_.openTimestep()) {
      // Roll-forward semantics after a size-triggered seal: stragglers of
      // the force-sealed window land in the next open timestep. Anything
      // older is late and dropped.
      if (!(last_seal_size_triggered_ &&
            et == builder_.openTimestep() - 1)) {
        ++late_events_;
        registry.counter("stream.late_events").increment();
        continue;
      }
    } else {
      // Watermark: an event in a later window seals everything before it
      // (intermediate timesteps become carried copies).
      while (builder_.openTimestep() < et) {
        sealOpen(/*size_triggered=*/false);
      }
    }
    const Status staged = builder_.stage(ev);
    if (!staged.isOk()) {
      result = staged;
      break;
    }
    if (options_.max_staged_cells > 0 &&
        builder_.stagedCells() >= options_.max_staged_cells &&
        sealed_timesteps_ + 1 < planned) {
      sealOpen(/*size_triggered=*/true);
    }
  }
  if (result.isOk()) {
    // End of source: pad to the planned horizon with carried copies so the
    // streamed run covers exactly the batch horizon.
    while (sealed_timesteps_ < planned) {
      sealOpen(/*size_triggered=*/false);
    }
  }
  // On error nothing staged is sealed — the open timestep's partial state
  // dies with the builder, and the closed queue unblocks the engine.
  queue_.close();
  return result;
}

// ---------------------------------------------------------------------------
// StreamingInstanceProvider
// ---------------------------------------------------------------------------

StreamingInstanceProvider::StreamingInstanceProvider(
    const PartitionedGraph& pg, GraphTemplatePtr tmpl,
    std::size_t planned_timesteps, std::int64_t t0, std::int64_t delta,
    SealQueue& queue)
    : pg_(pg),
      tmpl_(std::move(tmpl)),
      planned_(planned_timesteps),
      t0_(t0),
      delta_(delta),
      queue_(queue),
      load_ns_(pg.numPartitions(), 0) {
  TSG_CHECK(tmpl_ != nullptr);
}

const PartitionInstanceData& StreamingInstanceProvider::instanceFor(
    PartitionId p, Timestep t) {
  TSG_CHECK_MSG(t >= 0 &&
                    static_cast<std::size_t>(t) < materialized_.size(),
                "instanceFor before awaitTimestep sealed timestep " +
                    std::to_string(t));
  return materialized_[static_cast<std::size_t>(t)]->parts[p];
}

std::int64_t StreamingInstanceProvider::takeLoadNs(PartitionId p) {
  return std::exchange(load_ns_[p], 0);
}

bool StreamingInstanceProvider::awaitTimestep(Timestep t) {
  TSG_CHECK(t >= 0);
  while (materialized_.size() <= static_cast<std::size_t>(t)) {
    SealedTimestep sealed;
    if (!queue_.pop(sealed)) {
      break;  // stream ended (or aborted) before t
    }
    // The ingestor seals in timestep order from 0; the provider's dense
    // vector indexing depends on it.
    TSG_CHECK_MSG(static_cast<std::size_t>(sealed.timestep) ==
                      materialized_.size(),
                  "seal queue delivered timesteps out of order");
    auto mat = std::make_unique<MaterializedTimestep>();
    mat->subgraph_dirty = std::move(sealed.subgraph_dirty);
    mat->parts.reserve(pg_.numPartitions());
    for (PartitionId p = 0; p < pg_.numPartitions(); ++p) {
      const std::int64_t start = steadyNowNs();
      mat->parts.push_back(
          gatherPartitionInstance(pg_, p, sealed.instance));
      load_ns_[p] += steadyNowNs() - start;
    }
    mat->instance = std::move(sealed.instance);
    materialized_.push_back(std::move(mat));
  }
  return materialized_.size() > static_cast<std::size_t>(t);
}

bool StreamingInstanceProvider::subgraphDirty(Timestep t,
                                              SubgraphId sg) const {
  if (t < 0 || static_cast<std::size_t>(t) >= materialized_.size()) {
    return true;  // conservative: unknown timesteps are dirty
  }
  if (t == 0) {
    return true;  // no previous timestep to be clean against
  }
  const auto& dirty = materialized_[static_cast<std::size_t>(t)]->subgraph_dirty;
  return sg >= dirty.size() || dirty[sg] != 0;
}

const GraphInstance& StreamingInstanceProvider::sealedInstance(
    Timestep t) const {
  TSG_CHECK(t >= 0 && static_cast<std::size_t>(t) < materialized_.size());
  return materialized_[static_cast<std::size_t>(t)]->instance;
}

// ---------------------------------------------------------------------------
// IngestThread
// ---------------------------------------------------------------------------

IngestThread::IngestThread(StreamIngestor& ingestor, EventSource& source)
    : thread_([this, &ingestor, &source] {  // NOLINT(tsg-naked-thread)
        status_ = ingestor.run(source);
      }) {}

Status IngestThread::join() {
  if (!joined_) {
    thread_.join();
    joined_ = true;
  }
  return status_;
}

// ---------------------------------------------------------------------------
// StreamPipeline
// ---------------------------------------------------------------------------

StreamPipeline::StreamPipeline(const PartitionedGraph& pg,
                               std::size_t planned_timesteps, std::int64_t t0,
                               std::int64_t delta, std::size_t queue_capacity,
                               std::size_t max_staged_cells)
    : queue_(queue_capacity),
      ingestor_(pg.templatePtr(), pg, t0, delta, queue_,
                IngestorOptions{.planned_timesteps = static_cast<std::int32_t>(
                                    planned_timesteps),
                                .max_staged_cells = max_staged_cells}),
      provider_(pg, pg.templatePtr(), planned_timesteps, t0, delta, queue_) {}

Status StreamPipeline::run(EventSource& source, const Consumer& consume) {
  IngestThread ingest(ingestor_, source);
  consume(provider_);
  SealedTimestep leftover;
  while (queue_.pop(leftover)) {
  }
  return ingest.join();
}

Status StreamPipeline::run(std::vector<GraphEvent> events,
                           const Consumer& consume) {
  MemoryEventSource source;
  source.push(std::move(events));
  source.close();
  return run(source, consume);
}

}  // namespace stream
}  // namespace tsg
