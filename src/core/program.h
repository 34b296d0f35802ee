// TI-BSP programming abstraction (§II-C/§II-D of the paper).
//
// Users implement TiBspProgram:
//   compute(ctx)        — invoked per subgraph, per superstep, per timestep
//                         (the paper's Compute(sg, timestep, superstep, msgs))
//   endOfTimestep(ctx)  — invoked per subgraph when a timestep's BSP ends
//   merge(ctx)          — eventually-dependent pattern: BSP over subgraph
//                         templates after all timesteps complete
//
// The SubgraphContext carries everything the paper passes via parameters or
// framework calls: the subgraph and its instance values, timestep/superstep,
// incoming messages, SendToSubgraph / SendToNextTimestep /
// SendToSubgraphInNextTimestep / SendMessageToMerge, VoteToHalt and
// VoteToHaltTimestep, plus result output and per-timestep counters.
//
// One program instance is created per partition (see ProgramFactory) and
// handles all subgraphs of that partition, so per-partition algorithm state
// (e.g. TDSP labels) lives naturally in program members. Program instances
// stay alive across all timesteps of a run (a fault rollback replaces them
// with fresh ones restored from the checkpoint).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "gofs/instance_provider.h"
#include "graph/types.h"
#include "partition/partitioned_graph.h"
#include "runtime/message.h"

namespace tsg {
namespace core_detail {
class WorkerState;  // engine-internal backing store for contexts
}  // namespace core_detail

// Which user hook the context is currently serving; gates which sends are
// legal (e.g. sendToSubgraph is a Compute/Merge-phase construct).
enum class ExecPhase : std::uint8_t { kCompute, kEndOfTimestep, kMerge };

class SubgraphContext {
 public:
  // --- identity & progress ---
  [[nodiscard]] SubgraphId subgraphId() const;
  [[nodiscard]] PartitionId partitionId() const;
  [[nodiscard]] Timestep timestep() const;
  [[nodiscard]] std::int32_t superstep() const;
  [[nodiscard]] ExecPhase phase() const;
  [[nodiscard]] std::size_t numTimestepsPlanned() const;
  [[nodiscard]] std::int64_t delta() const;
  [[nodiscard]] std::int64_t timestampOf(Timestep t) const;

  // --- topology (time-invariant) ---
  [[nodiscard]] const GraphTemplate& graphTemplate() const;
  [[nodiscard]] const PartitionedGraph& partitionedGraph() const;
  [[nodiscard]] const Subgraph& subgraph() const;
  // True if template vertex v belongs to this context's partition.
  [[nodiscard]] bool ownsVertex(VertexIndex v) const;

  // --- instance attribute values (this partition's slice of gᵗ) ---
  // Valid in kCompute / kEndOfTimestep phases; v (e) must be owned by this
  // partition. Attribute indices come from the template schemas.
  [[nodiscard]] std::int64_t vertexInt64(std::size_t attr, VertexIndex v) const;
  [[nodiscard]] double vertexDouble(std::size_t attr, VertexIndex v) const;
  [[nodiscard]] bool vertexBool(std::size_t attr, VertexIndex v) const;
  [[nodiscard]] const std::string& vertexString(std::size_t attr,
                                                VertexIndex v) const;
  [[nodiscard]] const std::vector<std::string>& vertexStringList(
      std::size_t attr, VertexIndex v) const;
  [[nodiscard]] double edgeDouble(std::size_t attr, EdgeIndex e) const;
  // This partition's whole column of edge attribute attr, indexed by
  // PartitionedGraph::localIndexOfEdge. Inner loops read it once instead of
  // paying edgeDouble's per-call ownership and type checks; the caller must
  // then keep to edges whose source this partition owns.
  [[nodiscard]] const AttributeColumn& edgeColumn(std::size_t attr) const;

  // --- messages delivered to this subgraph this superstep ---
  [[nodiscard]] std::span<const Message> messages() const;

  // --- message passing (§II-D constructs) ---
  // Payloads are PayloadBuffers (see runtime/payload_buffer.h): a byte
  // vector converts implicitly, small payloads stay inline, and sending the
  // same buffer to many destinations shares one heap block instead of
  // deep-copying per destination.
  // Between subgraphs within the current BSP (compute or merge phase).
  void sendToSubgraph(SubgraphId dst, PayloadBuffer payload);
  // To this same subgraph at superstep 0 of the next timestep.
  void sendToNextTimestep(PayloadBuffer payload);
  // To another subgraph at superstep 0 of the next timestep.
  void sendToSubgraphInNextTimestep(SubgraphId dst, PayloadBuffer payload);
  // To this subgraph's Merge invocation (eventually dependent pattern).
  void sendMessageToMerge(PayloadBuffer payload);

  // --- termination ---
  void voteToHalt();          // end this subgraph's BSP participation
  void voteToHaltTimestep();  // While-mode: request end of the TI loop

  // --- results & metrics ---
  void output(std::string line);  // the paper's Output/PrintHorizon
  void addCounter(std::string_view name, std::uint64_t value);

  // --- aggregators (Pregel-style) ---
  // Values aggregated (summed) during timestep t are readable by every
  // subgraph during timestep t+1. TDSP uses this for While-mode global
  // termination ("have all |V̂| vertices been finalized?").
  void aggregate(std::string_view name, std::uint64_t value);
  [[nodiscard]] std::uint64_t aggregatedU64(std::string_view name) const;

 private:
  friend class core_detail::WorkerState;
  explicit SubgraphContext(core_detail::WorkerState& state) : state_(state) {}
  core_detail::WorkerState& state_;
};

class TiBspProgram {
 public:
  virtual ~TiBspProgram() = default;

  virtual void compute(SubgraphContext& ctx) = 0;
  virtual void endOfTimestep(SubgraphContext& ctx) { (void)ctx; }
  virtual void merge(SubgraphContext& ctx) { (void)ctx; }

  // Incremental-skip contract (streaming runs). Returning true asserts: "if
  // this subgraph enters a timestep with no pending messages and none of its
  // instance values changed versus the previous timestep, then running my
  // compute/superstep loop would send nothing, output nothing and leave all
  // my per-subgraph state exactly as it was" — so the engine may halt it at
  // superstep 0 without calling compute. endOfTimestep still runs for
  // skipped subgraphs (its effects must therefore be derived from state, not
  // from "compute ran this timestep"). Programs whose superstep 0 does
  // unconditional work (e.g. TDSP label resets) must keep the default.
  [[nodiscard]] virtual bool skippableWhenClean() const { return false; }

  // Checkpoint hooks. A recovery re-creates every program through the
  // factory and then calls loadState, so each member a program carries
  // across timesteps (TDSP labels, ...) must either be serialized here or be
  // rebuilt from what was serialized. A rebuild must happen before the next
  // superstep 0 does its work, and that superstep must not be skipped (keep
  // skippableWhenClean() false until the rebuild ran). The defaults suit
  // stateless programs (PageRank, SSSP, WCC, Hashtag): there is nothing to
  // save, and a recovery re-creates the program fresh.
  virtual void saveState(BinaryWriter& w) const { (void)w; }
  virtual Status loadState(BinaryReader& r) {
    (void)r;
    return Status::ok();
  }
};

// Creates the program instance that will serve partition p.
using ProgramFactory =
    std::function<std::unique_ptr<TiBspProgram>(PartitionId p)>;

}  // namespace tsg
