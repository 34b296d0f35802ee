#include "profile/profiler.h"

#include <algorithm>
#include <utility>

namespace tsg {

std::atomic<bool> Profiler::armed_{false};

Profiler& Profiler::global() {
  static Profiler instance;
  return instance;
}

void Profiler::arm(const ProfileOptions& options) {
  options_ = options;
  sample_every_ = std::max<std::uint32_t>(1, options.sample_every);
  armed_.store(true, std::memory_order_relaxed);  // tsg:mo(gate flag only; arming publishes no data)
}

void Profiler::disarm() {
  armed_.store(false, std::memory_order_relaxed);  // tsg:mo(gate flag; disarming publishes nothing)
  pg_ = nullptr;
  table_ = AttributionTable{};
  shards_.clear();
}

std::size_t Profiler::sketchCapacity() const {
  return std::max<std::size_t>(8, options_.sketch_capacity);
}

void Profiler::beginRun(const PartitionedGraph& pg, Timestep first_timestep,
                        std::int32_t num_timesteps) {
  if (!enabled()) {
    return;
  }
  pg_ = &pg;
  table_ = AttributionTable{};
  table_.num_partitions = pg.numPartitions();
  table_.first_timestep = first_timestep;
  table_.num_rows = std::max<std::int32_t>(0, num_timesteps) + 1;  // + merge
  table_.sample_every = sample_every_;
  const std::size_t num_subgraphs = pg.numSubgraphs();
  table_.subgraphs.resize(num_subgraphs);
  for (SubgraphId sg = 0; sg < num_subgraphs; ++sg) {
    const Subgraph& s = pg.subgraph(sg);
    SubgraphMeta& m = table_.subgraphs[sg];
    m.id = sg;
    m.partition = s.partition;
    m.vertices = s.numVertices();
    m.local_edges = s.num_local_edges;
    m.remote_edges = s.remote_edges.size();
  }
  table_.rows.assign(static_cast<std::size_t>(table_.num_rows),
                     std::vector<SubgraphCosts>(num_subgraphs));
  table_.msgs_in.assign(num_subgraphs, 0);
  table_.bytes_in.assign(num_subgraphs, 0);
  shards_.clear();
  shards_.reserve(pg.numPartitions());
  for (PartitionId p = 0; p < pg.numPartitions(); ++p) {
    shards_.emplace_back(sketchCapacity());
  }
}

AttributionTable Profiler::take() {
  if (pg_ == nullptr) {
    return {};
  }
  const PartitionedGraph& pg = *std::exchange(pg_, nullptr);
  AttributionTable table = std::exchange(table_, AttributionTable{});
  const std::vector<Shard> shards = std::exchange(shards_, {});

  SpaceSavingSketch compute_sketch(sketchCapacity());
  SpaceSavingSketch fanout_sketch(sketchCapacity());
  for (const Shard& shard : shards) {
    compute_sketch.merge(shard.compute);
    fanout_sketch.merge(shard.fanout);
  }

  const auto to_hot = [&pg](const SpaceSavingSketch::Entry& e) {
    HotVertex h;
    h.vertex = e.key;
    h.partition =
        e.key < pg.graphTemplate().numVertices()
            ? pg.partitionOfVertex(static_cast<VertexIndex>(e.key))
            : kInvalidPartition;
    h.weight = e.count;
    h.error = e.error;
    return h;
  };
  for (const auto& e : compute_sketch.topK()) {
    table.hot_compute.push_back(to_hot(e));
  }
  for (const auto& e : fanout_sketch.topK()) {
    table.hot_fanout.push_back(to_hot(e));
  }
  table.sketch_weight_compute = compute_sketch.totalWeight();
  table.sketch_weight_fanout = fanout_sketch.totalWeight();
  return table;
}

// tsg:hot — walks every unit and message of a sealed superstep.
void Profiler::chargeSealed(Timestep t, std::span<const UnitCharge> units,
                            std::span<const InboundCharge> inbound) {
  const std::int32_t row = rowOf(t);
  for (const UnitCharge& unit : units) {
    if (SubgraphCosts* cell = cellAt(row, unit.sg)) {
      *cell += unit.cost;
    }
  }
  for (const InboundCharge& msg : inbound) {
    if (msg.dst < table_.msgs_in.size()) {
      ++table_.msgs_in[msg.dst];
      table_.bytes_in[msg.dst] += msg.bytes;
    }
  }
}

void Profiler::recordVertexSample(PartitionId p, VertexIndex vertex,
                                  std::uint64_t ns, std::uint64_t fanout) {
  if (p >= shards_.size()) {
    return;
  }
  const std::uint64_t scale = sample_every_;
  shards_[p].compute.offer(vertex, ns * scale);
  if (fanout > 0) {
    shards_[p].fanout.offer(vertex, fanout * scale);
  }
}

void Profiler::recordResidentSlice(PartitionId p, Timestep t,
                                   std::uint64_t bytes) {
  const std::int32_t row = rowOf(t);
  if (pg_ == nullptr || p >= pg_->numPartitions() || row < 0) {
    return;
  }
  const Partition& part = pg_->partition(p);
  const std::uint64_t part_vertices = part.numVertices();
  if (part_vertices == 0) {
    return;
  }
  for (const Subgraph& sg : part.subgraphs) {
    if (SubgraphCosts* cell = cellAt(row, sg.id)) {
      // An occupancy level, not a flow: the latest load for this row wins.
      cell->resident_bytes = bytes * sg.numVertices() / part_vertices;
    }
  }
}

}  // namespace tsg
