// AttributionTable — the cost-attribution profiler's output: who consumed
// what, at subgraph granularity, per timestep.
//
// The superstep records name the straggler *partition* (the wait each
// partition caused); this table explains it: each (timestep row, subgraph)
// cell accounts the compute time, compute invocations, and outbound message
// traffic that subgraph caused. Run totals add inbound traffic per
// subgraph. The table is a value of one profiled run, built and charged by
// the engine (profile/profiler.h says how); a partition's resident
// attribute bytes are its `gofs.resident_bytes` gauge in the run's metrics.
//
// Conservation invariants, by construction (asserted in
// tests/test_profile.cc under both schedules, fault-free and recovered):
// summing `computes`, `msgs_out` and `bytes_out` over a partition's
// subgraphs reproduces its SuperstepRecord parts exactly, and inbound
// totals equal outbound totals. The engine meters each subgraph unit once;
// the seal that commits a superstep's record part is the step that
// charges its units' cells. `compute_ns` is a timed-span measurement (a
// subset of CPU busy time), so it is comparable but not bit-identical to
// busy_ns.
//
// Row layout: `num_rows = num_timesteps + 1`; row `t - first_timestep`
// holds timestep t, and the final row holds the Merge BSP of eventually
// dependent runs (whose records are stamped timestep `first + count`,
// matching RunStats).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "graph/types.h"

namespace tsg {

inline constexpr std::int32_t kAttributionSchemaVersion = 3;

// One (timestep, subgraph) accounting cell.
struct SubgraphCosts {
  std::int64_t compute_ns = 0;      // timed spans around program compute
  std::uint64_t computes = 0;       // compute invocations (supersteps run)
  std::uint64_t msgs_out = 0;       // messages this subgraph sent
  std::uint64_t bytes_out = 0;

  SubgraphCosts& operator+=(const SubgraphCosts& o) {
    compute_ns += o.compute_ns;
    computes += o.computes;
    msgs_out += o.msgs_out;
    bytes_out += o.bytes_out;
    return *this;
  }
};

// Static shape of one subgraph (copied from the PartitionedGraph when the
// run's table is built, so reports and the advisor need no graph in hand).
struct SubgraphMeta {
  SubgraphId id = kInvalidSubgraph;
  PartitionId partition = kInvalidPartition;
  std::uint64_t vertices = 0;
  std::uint64_t local_edges = 0;
  std::uint64_t remote_edges = 0;
};

// One heavy hitter from the space-saving sketch. `weight` is the sketch's
// upper-bound count (sampled values scaled by the sampling period);
// `weight - error` is the guaranteed lower bound.
struct HotVertex {
  std::uint64_t vertex = 0;  // template vertex index
  PartitionId partition = kInvalidPartition;
  std::uint64_t weight = 0;
  std::uint64_t error = 0;
};

struct AttributionTable {
  std::int32_t schema_version = kAttributionSchemaVersion;
  std::uint32_t num_partitions = 0;
  Timestep first_timestep = 0;
  std::int32_t num_rows = 0;
  std::uint32_t sample_every = 1;  // vertex sampling period used

  std::vector<SubgraphMeta> subgraphs;           // indexed by global id
  std::vector<std::vector<SubgraphCosts>> rows;  // [row][subgraph id]

  // Run totals, per subgraph: inbound traffic, charged to the destination
  // in the seal of the superstep whose unit sent it.
  std::vector<std::uint64_t> msgs_in;
  std::vector<std::uint64_t> bytes_in;

  // Heavy hitters over per-vertex compute-ns and message fan-out (vertex-
  // centric engines only; the subgraph-centric engine's unit of heat is the
  // subgraph row itself).
  std::vector<HotVertex> hot_compute;
  std::vector<HotVertex> hot_fanout;
  std::uint64_t sketch_weight_compute = 0;  // total sketch weight W
  std::uint64_t sketch_weight_fanout = 0;

  [[nodiscard]] bool empty() const { return subgraphs.empty(); }
  [[nodiscard]] std::size_t numSubgraphs() const { return subgraphs.size(); }

  // Per-subgraph totals across all rows.
  [[nodiscard]] std::vector<SubgraphCosts> subgraphTotals() const;
  // Per-partition compute-ns totals (folding subgraphTotals by owner).
  [[nodiscard]] std::vector<std::int64_t> partitionComputeNs() const;

  // Gini coefficient of per-subgraph compute within one row: 0 = perfectly
  // even, ->1 = one subgraph owns everything. The per-timestep skew series
  // `tsgcli analyze --attrib` charts.
  [[nodiscard]] double rowGini(std::int32_t row) const;
};

// Gini coefficient of a non-negative series (0 when empty or all-zero).
[[nodiscard]] double giniCoefficient(const std::vector<std::int64_t>& values);

// Writes the table as one JSON object value (the caller emits the
// surrounding key). Row cells are compact fixed-order arrays:
// [compute_ns, computes, msgs_out, bytes_out].
void attributionToJson(JsonWriter& w, const AttributionTable& table);

// Parses what attributionToJson wrote (the "attribution" member of a
// RunStats document). Fails with CorruptData naming the field unless rows,
// msgs_in and bytes_in match num_rows and the subgraph count, and every
// subgraph's partition is below num_partitions.
Result<AttributionTable> attributionFromJson(const JsonValue& v);

}  // namespace tsg
