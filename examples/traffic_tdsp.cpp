// Traffic routing over a city-scale road network — the paper's motivating
// Smart City scenario (§I).
//
// Generates a synthetic road network, 24 five-minute traffic snapshots with
// randomly varying travel times, stores them as a GoFS dataset (temporal
// packing 10), then answers: starting from a depot at
// t0, what is the earliest arrival at every intersection, and how does the
// reachable horizon grow per timestep?
//
// Demonstrates: generators → partitioning → GoFS persistence → lazy
// loading → While-mode TDSP → per-timestep progress counters.
#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "algorithms/tdsp.h"
#include "generators/instances.h"
#include "generators/topology.h"
#include "gofs/dataset.h"
#include "partition/partitioner.h"

using namespace tsg;

int main() {
  // 1. A ~10k-intersection road network.
  RoadNetworkOptions topo;
  topo.width = 100;
  topo.height = 100;
  topo.seed = 42;
  auto tmpl_result =
      makeRoadNetwork(topo, AttributeSchema{}, roadEdgeSchema());
  if (!tmpl_result.isOk()) {
    std::fprintf(stderr, "generator failed: %s\n",
                 tmpl_result.status().toString().c_str());
    return 1;
  }
  auto tmpl = std::make_shared<GraphTemplate>(std::move(tmpl_result).value());
  std::printf("road network: %zu intersections, %zu road segments\n",
              tmpl->numVertices(), tmpl->numEdges() / 2);

  // 2. A day's worth of 5-minute traffic snapshots (travel time 0.1-1 min).
  RoadInstanceOptions instances;
  instances.num_timesteps = 24;
  instances.delta = 5;
  instances.min_latency = 0.1;  // mean ~0.55 min: frontier moves ~9
  instances.max_latency = 1.0;  // intersections per 5-minute timestep
  instances.seed = 7;
  auto coll_result = makeRoadInstances(tmpl, instances);
  if (!coll_result.isOk()) {
    std::fprintf(stderr, "instance generation failed\n");
    return 1;
  }
  const auto collection = std::move(coll_result).value();

  // 3. Partition over 4 simulated hosts and persist to GoFS.
  const BfsPartitioner partitioner(3);
  auto pg_result =
      PartitionedGraph::build(tmpl, partitioner.assign(*tmpl, 4), 4);
  if (!pg_result.isOk()) {
    std::fprintf(stderr, "partitioning failed\n");
    return 1;
  }
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tsg_traffic_example")
          .string();
  GofsOptions gofs;  // temporal packing 10
  if (const auto status =
          writeGofsDataset(dir, "city", pg_result.value(), collection, gofs);
      !status.isOk()) {
    std::fprintf(stderr, "GoFS write failed: %s\n",
                 status.toString().c_str());
    return 1;
  }
  auto ds_result = GofsDataset::open(dir);
  if (!ds_result.isOk()) {
    return 1;
  }
  const auto& ds = ds_result.value();
  const auto storage = ds.storageStats();
  std::printf("GoFS dataset: %llu slice files, %.1f MB\n",
              static_cast<unsigned long long>(
                  storage.isOk() ? storage.value().slice_files : 0),
              storage.isOk()
                  ? static_cast<double>(storage.value().slice_bytes) / 1e6
                  : 0.0);

  // 4. Earliest arrival everywhere from the depot (vertex 0) at t0.
  auto provider = ds.makeProvider();
  TdspOptions options;
  options.source = 0;
  options.latency_attr =
      ds.partitionedGraph().graphTemplate().edgeSchema().requireIndex(
          "latency");
  options.while_mode = true;
  const auto run = runTdsp(ds.partitionedGraph(), *provider, options);

  std::uint64_t reached = 0;
  double worst = 0;
  for (VertexIndex v = 0; v < tmpl->numVertices(); ++v) {
    if (run.finalized_at[v] >= 0) {
      ++reached;
      worst = std::max(worst, run.tdsp[v]);
    }
  }
  std::printf(
      "TDSP: reached %llu / %zu intersections in %d timesteps; farthest "
      "arrival %.1f min\n",
      static_cast<unsigned long long>(reached), tmpl->numVertices(),
      run.exec.timesteps_executed, worst);

  std::printf("reachable horizon per timestep (new intersections):\n");
  const auto& counter =
      run.exec.stats.counters().at(kTdspFinalizedCounter);
  for (std::size_t t = 0; t < counter.size(); ++t) {
    std::uint64_t newly = 0;
    for (const auto per_part : counter[t]) {
      newly += per_part;
    }
    if (newly > 0) {
      std::printf("  t=%2zu (+%2zu min): %6llu new, e.g. frontier radius "
                  "~%.0f min\n",
                  t, t * 5, static_cast<unsigned long long>(newly),
                  static_cast<double>(t + 1) * 5);
    }
  }

  std::filesystem::remove_all(dir);
  return reached > 0 ? 0 : 1;
}
