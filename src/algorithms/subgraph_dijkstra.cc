#include "algorithms/subgraph_dijkstra.h"

#include <algorithm>
#include <functional>
#include <tuple>

namespace tsg {
namespace {

// Message payloads name vertices by template index; one that is out of range
// or belongs to another subgraph would corrupt another subgraph's labels.
void checkInSubgraph(const PartitionedGraph& pg, SubgraphId sg,
                     VertexIndex v) {
  TSG_CHECK_MSG(pg.subgraphOfVertex(v) == sg,
                "label names a vertex outside the receiving subgraph");
}

}  // namespace

void SubgraphDijkstra::push(VertexIndex v, double d) {
  heap_.emplace_back(d, v);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
}

void SubgraphDijkstra::seed(const SubgraphContext& ctx, VertexIndex v,
                            double d) {
  checkInSubgraph(ctx.partitionedGraph(), ctx.subgraphId(), v);
  if (d < labels_[v]) {
    labels_[v] = d;
    push(v, d);
  }
}

void SubgraphDijkstra::seedFromMessages(const SubgraphContext& ctx) {
  for (const Message& msg : ctx.messages()) {
    for (const auto& item : decodeVertexLabels(msg.payload)) {
      seed(ctx, item.vertex, item.label);
    }
  }
}

void SubgraphDijkstra::seedRootsFromMessages(const SubgraphContext& ctx,
                                             double root_label) {
  const auto& pg = ctx.partitionedGraph();
  const SubgraphId sg = ctx.subgraphId();
  root_label_ = root_label;
  for (const Message& msg : ctx.messages()) {
    for (const VertexIndex v : decodeVertexList(msg.payload)) {
      checkInSubgraph(pg, sg, v);
      if (root_label < labels_[v]) {
        labels_[v] = root_label;
        roots_.push_back(v);
      }
    }
  }
}

void SubgraphDijkstra::run(SubgraphContext& ctx, double horizon) {
  // Settling roots before the heap is Dijkstra's order only if no queued
  // label is below theirs.
  TSG_CHECK(heap_.empty() || roots_.empty());
  if (heap_.empty() && roots_.empty()) {
    return;
  }
  const PartitionedGraph& pg = ctx.partitionedGraph();
  const PartitionId partition = ctx.partitionId();
  const SubgraphId sg = ctx.subgraphId();
  const std::size_t num_edges = pg.partition(partition).edges.size();
  const double* weights = nullptr;
  if (weight_attr_ != kNoAttr) {
    const auto& column = ctx.edgeColumn(weight_attr_).asDouble();
    TSG_CHECK(column.size() == num_edges);
    weights = column.data();
  }
  const std::uint8_t* open = nullptr;
  if (open_attr_ != kNoAttr) {
    const auto& column = ctx.edgeColumn(open_attr_).asBool();
    TSG_CHECK(column.size() == num_edges);
    open = column.data();
  }

  // tsg:hot — once per settled vertex; reads the edge columns and appends
  // to the reused heap and candidate buffers.
  const auto relax = [&](VertexIndex v, double d) {
    // An edge belongs to its source's partition, so this one check covers
    // the column reads of all of v's out-edges.
    TSG_CHECK(pg.partitionOfVertex(v) == partition);
    for (const auto& oe : pg.graphTemplate().outEdges(v)) {
      const std::uint32_t slot = pg.localIndexOfEdge(oe.edge);
      if (open != nullptr && open[slot] == 0) {
        continue;  // closed during this instance (isExists == false)
      }
      const double candidate = d + (weights != nullptr ? weights[slot] : 1.0);
      if (candidate > horizon) {
        continue;  // unknowable beyond this instance's validity window
      }
      const SubgraphId dst_sg = pg.subgraphOfVertex(oe.dst);
      if (dst_sg == sg) {
        if (candidate < labels_[oe.dst]) {
          labels_[oe.dst] = candidate;
          push(oe.dst, candidate);
        }
      } else {
        remote_.push_back({dst_sg, oe.dst, candidate});
      }
    }
  };

  for (const VertexIndex v : roots_) {
    relax(v, root_label_);
  }
  roots_.clear();
  // tsg:hot — one iteration per queued label.
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const auto [d, v] = heap_.back();
    heap_.pop_back();
    if (d > labels_[v]) {
      continue;  // stale entry
    }
    relax(v, d);
  }
  sendRemote(ctx);
}

void SubgraphDijkstra::sendRemote(SubgraphContext& ctx) {
  std::sort(remote_.begin(), remote_.end(),
            [](const RemoteCandidate& a, const RemoteCandidate& b) {
              return std::tie(a.dst_sg, a.vertex, a.label) <
                     std::tie(b.dst_sg, b.vertex, b.label);
            });
  for (std::size_t i = 0; i < remote_.size();) {
    const SubgraphId dst_sg = remote_[i].dst_sg;
    batch_.clear();
    for (; i < remote_.size() && remote_[i].dst_sg == dst_sg; ++i) {
      // Sorted by label within a vertex: the first entry is its best.
      if (batch_.empty() || batch_.back().vertex != remote_[i].vertex) {
        batch_.push_back({remote_[i].vertex, remote_[i].label});
      }
    }
    ctx.sendToSubgraph(dst_sg, encodeVertexLabels(batch_));
  }
  remote_.clear();
}

}  // namespace tsg
