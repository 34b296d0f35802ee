#include "stream/ingestor.h"

#include <algorithm>
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
  const std::int64_t seal_start = steadyNowNs();
  auto sealed = builder_.seal();
  SealedTimestep item;
  item.timestep = sealed.timestep;
  item.changes.resize(pg_.numPartitions());
  for (CellChange& change : sealed.changes) {
    VertexIndex owner = change.index;
    if (change.target == EventTarget::kVertex) {
      item.dirty_subgraphs.push_back(pg_.subgraphOfVertex(owner));
      change.index = pg_.localIndexOfVertex(owner);
    } else {
      // An edge-cell change dirties both endpoint subgraphs: edge values are
      // readable from whichever side owns the slot, so stay conservative.
      const EdgeIndex e = change.index;
      owner = tmpl_->edgeSrc(e);
      item.dirty_subgraphs.push_back(pg_.subgraphOfVertex(owner));
      item.dirty_subgraphs.push_back(pg_.subgraphOfVertex(tmpl_->edgeDst(e)));
      change.index = pg_.localIndexOfEdge(e);
    }
    item.changes[pg_.partitionOfVertex(owner)].push_back(std::move(change));
  }
  std::sort(item.dirty_subgraphs.begin(), item.dirty_subgraphs.end());
  item.dirty_subgraphs.erase(
      std::unique(item.dirty_subgraphs.begin(), item.dirty_subgraphs.end()),
      item.dirty_subgraphs.end());

  auto& registry = MetricsRegistry::global();
  const std::int64_t now = steadyNowNs();
  registry.histogram("stream.seal_ns")
      .record(static_cast<std::uint64_t>(now - seal_start));
  registry.counter("stream.sealed_timesteps").increment();
  registry.histogram("stream.seal_lag_ns")
      .record(static_cast<std::uint64_t>(
          std::max<std::int64_t>(0, now - open_since_ns_)));
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
      parts_(pg.numPartitions()) {
  TSG_CHECK(tmpl_ != nullptr);
  // Zero-initialised columns, like the builder's first carry-forward base.
  const AttributeSchema& vschema = tmpl_->vertexSchema();
  const AttributeSchema& eschema = tmpl_->edgeSchema();
  for (PartitionId p = 0; p < pg.numPartitions(); ++p) {
    PartitionInstanceData& live = parts_[p].live;
    for (std::size_t a = 0; a < vschema.size(); ++a) {
      live.vertex_cols.push_back(AttributeColumn::make(
          vschema.at(a).type, pg.partition(p).numVertices()));
    }
    for (std::size_t a = 0; a < eschema.size(); ++a) {
      live.edge_cols.push_back(AttributeColumn::make(
          eschema.at(a).type, pg.partition(p).numEdges()));
    }
  }
}

namespace {

// Exchanges the record's value with its cell. Applied to a column holding
// t-1 it yields t, and applied again it yields t-1: one record serves redo
// and undo. A timestep names each cell at most once, so the records of one
// timestep may be swapped in any order.
void swapCell(PartitionInstanceData& data, CellChange& change) {
  AttributeColumn& col = change.target == EventTarget::kVertex
                             ? data.vertex_cols[change.attr]
                             : data.edge_cols[change.attr];
  AttrValue& value = change.value;
  switch (col.type()) {
    case AttrType::kInt64:
      std::swap(col.asInt64()[change.index], value.i64);
      break;
    case AttrType::kDouble:
      std::swap(col.asDouble()[change.index], value.f64);
      break;
    case AttrType::kBool: {
      auto& cell = col.asBool()[change.index];
      const bool old = cell != 0;
      cell = value.flag ? 1 : 0;
      value.flag = old;
      break;
    }
    case AttrType::kString:
      col.asString()[change.index].swap(value.str);
      break;
    case AttrType::kStringList:
      col.asStringList()[change.index].swap(value.list);
      break;
  }
}

}  // namespace

const PartitionInstanceData& StreamingInstanceProvider::instanceFor(
    PartitionId p, Timestep t) {
  PartitionCursor& part = parts_[p];
  TSG_CHECK_MSG(t >= 0 && static_cast<std::size_t>(t) < part.log.size(),
                "instanceFor before awaitTimestep sealed timestep " +
                    std::to_string(t));
  if (part.at != t) {
    const std::int64_t start = steadyNowNs();
    while (part.at != t) {
      // Forward applies log[at + 1]; backward undoes log[at].
      const Timestep step = part.at < t ? ++part.at : part.at--;
      for (CellChange& change : part.log[static_cast<std::size_t>(step)]) {
        swapCell(part.live, change);
      }
    }
    part.live.timestep = t;
    part.live.timestamp = t0_ + static_cast<std::int64_t>(t) * delta_;
    part.load_ns += steadyNowNs() - start;
  }
  return part.live;
}

std::int64_t StreamingInstanceProvider::takeLoadNs(PartitionId p) {
  return std::exchange(parts_[p].load_ns, 0);
}

bool StreamingInstanceProvider::awaitTimestep(Timestep t) {
  TSG_CHECK(t >= 0);
  while (dirty_.size() <= static_cast<std::size_t>(t)) {
    SealedTimestep sealed;
    if (!queue_.pop(sealed)) {
      break;  // stream ended (or aborted) before t
    }
    // The ingestor seals in timestep order from 0; the logs' dense
    // indexing depends on it.
    TSG_CHECK_MSG(static_cast<std::size_t>(sealed.timestep) == dirty_.size(),
                  "seal queue delivered timesteps out of order");
    TSG_CHECK(sealed.changes.size() == parts_.size());
    for (std::size_t p = 0; p < parts_.size(); ++p) {
      parts_[p].log.push_back(std::move(sealed.changes[p]));
    }
    dirty_.push_back(std::move(sealed.dirty_subgraphs));
  }
  return dirty_.size() > static_cast<std::size_t>(t);
}

bool StreamingInstanceProvider::subgraphDirty(Timestep t,
                                              SubgraphId sg) const {
  if (t < 0 || static_cast<std::size_t>(t) >= dirty_.size()) {
    return true;  // conservative: unknown timesteps are dirty
  }
  if (t == 0) {
    return true;  // no previous timestep to be clean against
  }
  const auto& dirty = dirty_[static_cast<std::size_t>(t)];
  return std::binary_search(dirty.begin(), dirty.end(), sg);
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
