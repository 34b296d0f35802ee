// InstanceBuilder — accumulates staged events into the next timestep.
//
// The streaming model is carry-forward: the instance for timestep t is the
// instance of t-1 (for the first timestep, the zero/empty instance) with
// each staged event overwriting one attribute cell. Within a timestep the
// stream is unordered, so conflicting writes to one cell resolve by a total
// order independent of arrival: the winner is the lexicographically largest
// (timestamp, canonical value bytes) pair. Duplicates are idempotent by the
// same rule.
//
// The builder holds one live instance. seal() writes the winners into it in
// place and reports exactly the cells that changed value, with their new
// values: the delta that travels to the workers, and the raw material of
// the dirty-subgraph tracking that powers incremental recomputation.
#pragma once

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "graph/graph_instance.h"
#include "graph/graph_template.h"
#include "stream/event.h"

namespace tsg {
namespace stream {

// One changed attribute cell and its new value. `index` is a dense template
// index out of the builder and a partition-local one after routing.
struct CellChange {
  EventTarget target = EventTarget::kVertex;
  std::uint32_t attr = 0;
  std::uint32_t index = 0;
  AttrValue value;
};

class InstanceBuilder {
 public:
  // first_timestep is the first timestep this builder will seal.
  InstanceBuilder(GraphTemplatePtr tmpl, std::int64_t t0, std::int64_t delta,
                  Timestep first_timestep = 0);

  // Timestep whose window [t0 + t·δ, t0 + (t+1)·δ) contains `timestamp`.
  // Negative for pre-history timestamps.
  [[nodiscard]] Timestep timestepOf(std::int64_t timestamp) const;

  [[nodiscard]] Timestep openTimestep() const { return open_; }
  // Number of distinct cells staged for the open timestep (winners, not raw
  // events — the seal-size trigger counts these).
  [[nodiscard]] std::size_t stagedCells() const { return staged_.size(); }

  // Stages `ev` into the open timestep (the caller routes by timestepOf).
  // Rejects events whose attr/index is out of range or whose value type
  // mismatches the schema; nothing is staged on error.
  Status stage(const GraphEvent& ev);

  struct Sealed {
    Timestep timestep = 0;
    std::int64_t timestamp = 0;
    // Every cell whose value changed vs. the previous timestep, with its
    // new value, at its dense template index; one entry per cell, in
    // (target, attr, index) order.
    std::vector<CellChange> changes;
  };

  // Seals the open timestep: applies the staged winners to the live
  // instance and reports the cells they changed. Advances the open
  // timestep by one and clears staging.
  Sealed seal();

 private:
  GraphTemplatePtr tmpl_;
  std::int64_t t0_;
  std::int64_t delta_;
  Timestep open_;
  GraphInstance live_;  // last sealed values (carry-forward base)

  struct Winner {
    std::int64_t timestamp = 0;
    std::vector<std::uint8_t> order_bytes;  // canonical value encoding
    AttrValue value;
  };
  // (target, attr, index) → winning write. An ordered map keeps seal()
  // deterministic regardless of arrival order.
  std::map<std::tuple<std::uint8_t, std::uint32_t, std::uint32_t>, Winner>
      staged_;
};

}  // namespace stream
}  // namespace tsg
