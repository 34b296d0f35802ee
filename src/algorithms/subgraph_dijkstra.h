// Horizon-bounded Dijkstra inside one subgraph: the kernel shared by
// subgraph-centric SSSP (Fig. 5b) and TDSP's ModifiedSSSP (Alg. 2).
//
// A compute call seeds it (the source, labels from remote edges, or TDSP's
// frontier as roots), then run() settles every improved vertex of the
// subgraph. Candidates above the horizon are dropped; those for other
// subgraphs are cut to the best per vertex and sent as one message per
// destination subgraph, items in vertex order. Labels equal a plain
// Dijkstra's bit for bit: each vertex relaxes with its final label and
// d + w is monotone in d, so settling order among ties changes nothing.
// The heap, root and candidate buffers are scratch reused across calls and
// never checkpointed.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "algorithms/codec.h"
#include "core/program.h"

namespace tsg {

class SubgraphDijkstra {
 public:
  static constexpr std::size_t kNoAttr = static_cast<std::size_t>(-1);

  // labels: indexed by template vertex; only the served subgraph's entries
  // are touched. weight_attr: double edge attribute (kNoAttr = 1 per edge).
  // open_attr: bool edge attribute, false = closed (kNoAttr = all open).
  SubgraphDijkstra(std::vector<double>& labels, std::size_t weight_attr,
                   std::size_t open_attr = kNoAttr)
      : labels_(labels), weight_attr_(weight_attr), open_attr_(open_attr) {}

  // Lowers v's label to d if that improves it; v must be in the subgraph.
  void seed(const SubgraphContext& ctx, VertexIndex v, double d);
  // Seeds every (vertex, label) item of this superstep's messages.
  void seedFromMessages(const SubgraphContext& ctx);
  // Every vertex of this superstep's vertex-list messages becomes a root
  // labelled root_label. run() relaxes roots in one pass before the heap,
  // so roots and heap seeds must not meet in one call.
  void seedRootsFromMessages(const SubgraphContext& ctx, double root_label);
  // Settles the subgraph and sends the remote candidates.
  void run(SubgraphContext& ctx, double horizon);

 private:
  struct RemoteCandidate {
    SubgraphId dst_sg;
    VertexIndex vertex;
    double label;
  };

  void push(VertexIndex v, double d);
  void sendRemote(SubgraphContext& ctx);

  std::vector<double>& labels_;
  const std::size_t weight_attr_;
  const std::size_t open_attr_;

  // Reused scratch.
  std::vector<std::pair<double, VertexIndex>> heap_;  // min-heap
  std::vector<VertexIndex> roots_;
  double root_label_ = 0.0;
  std::vector<RemoteCandidate> remote_;
  std::vector<VertexLabel> batch_;
};

}  // namespace tsg
