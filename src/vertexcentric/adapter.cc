#include "vertexcentric/adapter.h"

#include <algorithm>
#include <cstring>

#include "common/stopwatch.h"

namespace tsg {
namespace vertexcentric {

namespace {

constexpr std::size_t kVertexMessageBytes = sizeof(VertexIndex) +
                                            sizeof(double);

PayloadBuffer encodeVertexMessage(VertexIndex dst, double value) {
  std::uint8_t bytes[kVertexMessageBytes];
  std::memcpy(bytes, &dst, sizeof(dst));
  std::memcpy(bytes + sizeof(dst), &value, sizeof(value));
  return PayloadBuffer(bytes, sizeof(bytes));
}

}  // namespace

VertexAdapter::VertexAdapter(const PartitionedGraph& pg, PartitionId p,
                             bool min_combiner,
                             std::vector<profile::VertexSketches>& sketches)
    : pg_(pg),
      partition_(p),
      min_combiner_(min_combiner),
      inbox_(pg.partition(p).vertices.size()),
      has_msgs_(pg.partition(p).vertices.size(), 0),
      halted_(pg.partition(p).vertices.size(), 0),
      sketches_(sketches.empty() ? nullptr : &sketches[p]) {}

void VertexAdapter::compute(SubgraphContext& ctx) {
  ctx_ = &ctx;
  for (const Message& msg : ctx.messages()) {
    TSG_CHECK(msg.payload.size() == kVertexMessageBytes);
    VertexIndex dst = 0;
    double value = 0;
    std::memcpy(&dst, msg.payload.data(), sizeof(dst));
    std::memcpy(&value, msg.payload.data() + sizeof(dst), sizeof(value));
    const std::uint32_t local = pg_.localIndexOfVertex(dst);
    auto& list = inbox_[local];
    if (min_combiner_ && !list.empty()) {
      // Giraph's MinimumDoubleCombiner, applied at the receiver.
      list[0] = std::min(list[0], value);
    } else {
      list.push_back(value);
    }
    has_msgs_[local] = 1;
  }

  const bool first_superstep = ctx.superstep() == 0;
  bool all_halted = true;
  for (const VertexIndex v : ctx.subgraph().vertices) {
    const std::uint32_t local = pg_.localIndexOfVertex(v);
    if (first_superstep || has_msgs_[local] != 0 || halted_[local] == 0) {
      halted_[local] = 0;  // must re-vote to stay halted
      if (sketches_ != nullptr) [[unlikely]] {
        const std::uint64_t sent_before = sent_;
        const std::int64_t start = steadyNowNs();
        computeVertex(ctx, v, inbox_[local], halted_[local]);
        const std::int64_t ns = steadyNowNs() - start;
        if (vertices_computed_ % sketches_->sample_every == 0) {
          sketches_->offer(v, static_cast<std::uint64_t>(ns),
                           sent_ - sent_before);
        }
        ++vertices_computed_;
      } else {
        computeVertex(ctx, v, inbox_[local], halted_[local]);
      }
      inbox_[local].clear();
      has_msgs_[local] = 0;
    }
    all_halted = all_halted && halted_[local] != 0;
  }
  if (all_halted) {
    ctx.voteToHalt();
  }
  ctx_ = nullptr;
}

void VertexAdapter::sendTo(VertexIndex dst, double value) {
  ++sent_;
  ctx_->sendToSubgraph(pg_.subgraphOfVertex(dst),
                       encodeVertexMessage(dst, value));
}

void VertexAdapter::sendToNextTimestep(VertexIndex dst, double value) {
  ++sent_;
  ctx_->sendToSubgraphInNextTimestep(pg_.subgraphOfVertex(dst),
                                     encodeVertexMessage(dst, value));
}

}  // namespace vertexcentric
}  // namespace tsg
