// InstanceProvider — the runtime's source of per-partition instance data.
//
// A TI-BSP worker for partition p asks for the attribute values of its own
// vertices/edges at timestep t. Three implementations serve instances:
//  * DirectInstanceProvider — wraps an in-memory TimeSeriesCollection
//    (everything resident; no load spikes).
//  * GofsInstanceProvider (gofs/dataset.h) — lazily loads slice files with
//    temporal packing, reproducing the paper's every-10th-timestep load
//    spikes (Fig. 6).
//  * StreamingInstanceProvider (stream/ingestor.h) — serves timesteps as
//    the ingest pipeline seals them, patching each partition's live
//    columns through a swap log.
// (The vertex-centric engine's EmptyInstanceProvider serves no values.)
//
// Threading contract: instanceFor(p, t) is only ever called by the worker
// thread of partition p; implementations keep per-partition state with no
// cross-partition sharing, so no locks are needed on the hot path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/attribute.h"
#include "graph/collection.h"
#include "graph/types.h"
#include "partition/partitioned_graph.h"

namespace tsg {

// Attribute values of one timestep restricted to one partition.
// Columns are indexed by the partition-local dense indices
// (PartitionedGraph::localIndexOfVertex / localIndexOfEdge).
struct PartitionInstanceData {
  Timestep timestep = 0;
  std::int64_t timestamp = 0;
  std::vector<AttributeColumn> vertex_cols;
  std::vector<AttributeColumn> edge_cols;
};

class InstanceProvider {
 public:
  virtual ~InstanceProvider() = default;

  [[nodiscard]] virtual std::size_t numInstances() const = 0;
  [[nodiscard]] virtual std::int64_t t0() const = 0;
  [[nodiscard]] virtual std::int64_t delta() const = 0;

  // Returns partition p's view of timestep t, loading it if necessary.
  // The reference stays valid until the next instanceFor(p, ...) call.
  virtual const PartitionInstanceData& instanceFor(PartitionId p,
                                                   Timestep t) = 0;

  // Nanoseconds spent loading (I/O + decode) during calls for partition p
  // since the last takeLoadNs(p); resets the counter. Used for Fig. 6.
  virtual std::int64_t takeLoadNs(PartitionId p) = 0;
};

// Serves instances from a resident TimeSeriesCollection by gathering each
// partition's values on first access (cached per partition+timestep window).
class DirectInstanceProvider final : public InstanceProvider {
 public:
  // Both referents must outlive the provider.
  DirectInstanceProvider(const PartitionedGraph& pg,
                         const TimeSeriesCollection& collection);

  [[nodiscard]] std::size_t numInstances() const override;
  [[nodiscard]] std::int64_t t0() const override;
  [[nodiscard]] std::int64_t delta() const override;
  const PartitionInstanceData& instanceFor(PartitionId p, Timestep t) override;
  std::int64_t takeLoadNs(PartitionId p) override;

 private:
  struct PartitionState {
    Timestep cached_timestep = -1;
    PartitionInstanceData data;
    std::int64_t load_ns = 0;
  };

  const PartitionedGraph& pg_;
  const TimeSeriesCollection& collection_;
  std::vector<PartitionState> states_;
};

// Gathers partition p's columns out of a full GraphInstance (shared by the
// direct provider and the GoFS writer).
PartitionInstanceData gatherPartitionInstance(const PartitionedGraph& pg,
                                              PartitionId p,
                                              const GraphInstance& instance);

// A provider whose timesteps arrive over time (stream ingestion). The engine
// polls it from the coordinator thread at the top of the serial timestep
// loop; the dirty-set query gates the per-subgraph incremental skip.
//
// Threading contract: awaitTimestep is called only from the engine's
// coordinator thread. subgraphDirty(t, sg) is called from worker threads but
// only after awaitTimestep(t) returned true (the coordinator's superstep
// launch provides the happens-before edge), so implementations may serve it
// from data frozen at seal time without locking.
class TimestepStream {
 public:
  virtual ~TimestepStream() = default;

  // Blocks until timestep t is sealed and its instance data is servable via
  // instanceFor. Returns false if the stream ended before t was sealed (the
  // engine then finishes with the timesteps it has). Re-entrant for
  // already-sealed t: returns true immediately (fault recovery rewinds the
  // timestep loop).
  virtual bool awaitTimestep(Timestep t) = 0;

  // True if sealing timestep t changed any attribute cell of a vertex or
  // edge belonging to subgraph sg relative to timestep t-1. Subgraphs that
  // are clean AND message-free AND whose program declares
  // skippableWhenClean() are not recomputed. Must be conservative: when in
  // doubt, report dirty. Only meaningful for t > the first sealed timestep.
  [[nodiscard]] virtual bool subgraphDirty(Timestep t, SubgraphId sg) const = 0;
};

}  // namespace tsg
