// Whole-network structural analysis + cluster right-sizing.
//
// Combines the topology-level algorithms (weakly connected components,
// subgraph-centric PageRank) with the §IV-E partition-quality advisor:
// analyze a network, find its influential vertices, then hand the run's
// measured per-subgraph compute to the advisor and let it propose subgraph
// migrations for the next run, with the edge cut they would cost.
//
// Demonstrates: WCC, PageRank, the cost-attribution profiler,
// advisePartitioning.
#include <algorithm>
#include <cstdio>

#include "algorithms/pagerank.h"
#include "algorithms/wcc.h"
#include "generators/topology.h"
#include "gofs/instance_provider.h"
#include "partition/partitioner.h"
#include "profile/advisor.h"
#include "profile/profiler.h"

using namespace tsg;

int main() {
  // A social graph plus a few disconnected satellite communities.
  PreferentialAttachmentOptions topo;
  topo.num_vertices = 12000;
  topo.edges_per_vertex = 2;
  topo.seed = 77;
  auto core_result =
      makePreferentialAttachment(topo, AttributeSchema{}, AttributeSchema{});
  if (!core_result.isOk()) {
    return 1;
  }
  // Rebuild with satellites: copy the core edges and add isolated rings.
  GraphTemplateBuilder builder(/*directed=*/false);
  const auto& core = core_result.value();
  for (VertexIndex v = 0; v < core.numVertices(); ++v) {
    builder.addVertex(core.vertexId(v));
  }
  EdgeId next_edge = 0;
  for (EdgeIndex e = 0; e < core.numEdges(); ++e) {
    builder.addEdge(next_edge++, core.vertexId(core.edgeSrc(e)),
                    core.vertexId(core.edgeDst(e)));
  }
  const VertexId satellite_base = 1'000'000;
  for (int ring = 0; ring < 3; ++ring) {
    const VertexId base = satellite_base + static_cast<VertexId>(ring) * 100;
    for (int i = 0; i < 8; ++i) {
      builder.addVertex(base + static_cast<VertexId>(i));
    }
    for (int i = 0; i < 8; ++i) {
      builder.addUndirectedEdge(next_edge++, base + i, base + (i + 1) % 8);
    }
  }
  auto tmpl_result = builder.build();
  if (!tmpl_result.isOk()) {
    return 1;
  }
  auto tmpl = std::make_shared<GraphTemplate>(std::move(tmpl_result).value());

  const LdgPartitioner partitioner(19);
  auto pg_result =
      PartitionedGraph::build(tmpl, partitioner.assign(*tmpl, 4), 4);
  if (!pg_result.isOk()) {
    return 1;
  }
  const auto& pg = pg_result.value();
  TimeSeriesCollection coll(tmpl, 0, 1);
  coll.appendInstance();
  DirectInstanceProvider provider(pg, coll);

  // 1. Connectivity census.
  const auto wcc = runSubgraphWcc(pg, provider);
  std::printf("network: %zu vertices, %zu components (expected core + 3 "
              "satellite rings)\n",
              tmpl->numVertices(), wcc.num_components);

  // 2. Influence ranking, with the cost-attribution profiler armed so the
  // run records each subgraph's measured compute.
  PageRankOptions pr_options;
  pr_options.iterations = 25;
  profile::arm(ProfileOptions{});
  const auto pr = runSubgraphPageRank(pg, provider, pr_options);
  profile::disarm();
  std::vector<VertexIndex> order(tmpl->numVertices());
  for (VertexIndex v = 0; v < order.size(); ++v) {
    order[v] = v;
  }
  std::partial_sort(order.begin(), order.begin() + 5, order.end(),
                    [&](VertexIndex a, VertexIndex b) {
                      return pr.ranks[a] > pr.ranks[b];
                    });
  std::printf("top-5 PageRank:");
  for (int i = 0; i < 5; ++i) {
    std::printf(" user%llu(%.5f)",
                static_cast<unsigned long long>(tmpl->vertexId(order[i])),
                pr.ranks[order[i]]);
  }
  std::printf("\n");

  // 3. Right-size the placement from the measured per-subgraph compute
  // (§IV-E), weighing the suggested moves against the edge cut they cost.
  if (!pr.exec.stats.hasAttribution()) {
    return 1;
  }
  const auto advice = advisePartitioning(
      pr.exec.stats.attribution(), pr.exec.stats.partitionUtilization());
  std::fputs(renderAdvisorReport(advice).c_str(), stdout);
  const double cut_before =
      evaluatePartition(*tmpl, pg.assignment(), 4).cut_fraction;
  const double cut_after =
      evaluatePartition(*tmpl, advisedAssignment(pg, advice), 4).cut_fraction;
  std::printf("edge cut %.2f%% -> %.2f%%\n", cut_before * 100.0,
              cut_after * 100.0);
  return wcc.num_components == 4 ? 0 : 1;
}
