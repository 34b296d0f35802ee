// Replay helpers — bridges between batch collections and event streams.
//
// eventsFromCollection turns a TimeSeriesCollection into the event stream
// that, ingested under carry-forward semantics, reproduces each instance
// exactly: instance t is diffed against t-1 (t=0 against the zero/empty
// instance) and every changed cell becomes one event stamped with the
// instance's timestamp. appendInstanceDiff is that diff for one pair of
// consecutive instances, so a caller reading instances one at a time
// (tsgcli streaming a GoFS dataset) keeps only two of them resident. This is
// how tsgcli streams a generated dataset and how the equivalence tests get a
// ground-truth stream for any collection.
//
// assembleInstance scatters every partition's slice of a provider-served
// timestep back into one full GraphInstance (digests, output comparison,
// and the history the stream tests read back).
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "gofs/instance_provider.h"
#include "graph/collection.h"
#include "partition/partitioned_graph.h"
#include "stream/event.h"

namespace tsg {
namespace stream {

// Appends one event per cell where `cur` differs from `prev`, stamped with
// cur's timestamp, in (target, attr, index) order.
void appendInstanceDiff(const GraphInstance& prev, const GraphInstance& cur,
                        std::vector<GraphEvent>& out);

// Per-cell diff of consecutive instances, in deterministic (timestep,
// target, attr, index) order. Shuffling within one timestep must not change
// what the ingestor seals (the property the stream tests exercise).
std::vector<GraphEvent> eventsFromCollection(const TimeSeriesCollection& coll);

// Writes events as a framed file (stream/event.h wire format), with a
// trailing end-of-stream frame when `end_marker` is set.
Status writeEventFile(const std::string& path,
                      const std::vector<GraphEvent>& events,
                      bool end_marker = true);

// Reassembles the full instance for timestep t from the per-partition
// slices served by `provider`. The provider must already have timestep t
// available for every partition.
GraphInstance assembleInstance(const PartitionedGraph& pg,
                               const GraphTemplate& tmpl,
                               InstanceProvider& provider, Timestep t);

}  // namespace stream
}  // namespace tsg
