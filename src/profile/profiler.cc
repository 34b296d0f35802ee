#include "profile/profiler.h"

#include <algorithm>

namespace tsg {
namespace profile {

namespace profile_detail {
std::atomic<bool> g_armed{false};
}  // namespace profile_detail

namespace {
ProfileOptions g_options;
}  // namespace

void arm(const ProfileOptions& options) {
  g_options = options;
  g_options.sample_every = std::max<std::uint32_t>(1, options.sample_every);
  g_options.sketch_capacity =
      std::max<std::size_t>(8, options.sketch_capacity);
  profile_detail::g_armed.store(true, std::memory_order_relaxed);  // tsg:mo(gate flag only; arming publishes no data)
}

void disarm() {
  profile_detail::g_armed.store(false, std::memory_order_relaxed);  // tsg:mo(gate flag; disarming publishes nothing)
}

AttributionTable makeAttributionTable(const PartitionedGraph& pg,
                                      Timestep first_timestep,
                                      std::int32_t num_timesteps) {
  AttributionTable table;
  table.num_partitions = pg.numPartitions();
  table.first_timestep = first_timestep;
  table.num_rows = std::max<std::int32_t>(0, num_timesteps) + 1;  // + merge
  table.sample_every = g_options.sample_every;
  const std::size_t num_subgraphs = pg.numSubgraphs();
  table.subgraphs.resize(num_subgraphs);
  for (SubgraphId sg = 0; sg < num_subgraphs; ++sg) {
    const Subgraph& s = pg.subgraph(sg);
    SubgraphMeta& m = table.subgraphs[sg];
    m.id = sg;
    m.partition = s.partition;
    m.vertices = s.numVertices();
    m.local_edges = s.num_local_edges;
    m.remote_edges = s.remote_edges.size();
  }
  table.rows.assign(static_cast<std::size_t>(table.num_rows),
                    std::vector<SubgraphCosts>(num_subgraphs));
  table.msgs_in.assign(num_subgraphs, 0);
  table.bytes_in.assign(num_subgraphs, 0);
  return table;
}

std::vector<VertexSketches> makeVertexSketches(const PartitionedGraph& pg) {
  if (!enabled()) {
    return {};
  }
  return std::vector<VertexSketches>(pg.numPartitions(),
                                     VertexSketches(g_options));
}

void foldVertexSketches(const PartitionedGraph& pg,
                        const std::vector<VertexSketches>& sketches,
                        RunStats& stats) {
  if (sketches.empty() || !stats.hasAttribution()) {
    return;
  }
  SpaceSavingSketch compute_sketch(g_options.sketch_capacity);
  SpaceSavingSketch fanout_sketch(g_options.sketch_capacity);
  for (const VertexSketches& shard : sketches) {
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
  AttributionTable& table = stats.attribution();
  for (const auto& e : compute_sketch.topK()) {
    table.hot_compute.push_back(to_hot(e));
  }
  for (const auto& e : fanout_sketch.topK()) {
    table.hot_fanout.push_back(to_hot(e));
  }
  table.sketch_weight_compute = compute_sketch.totalWeight();
  table.sketch_weight_fanout = fanout_sketch.totalWeight();
}

}  // namespace profile
}  // namespace tsg
