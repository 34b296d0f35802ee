#include "stream/builder.h"

#include <string>
#include <utility>

namespace tsg {
namespace stream {

namespace {

// Writes `value` into col[index]; returns true if the stored value changed.
bool applyCell(AttributeColumn& col, std::uint32_t index,
               const AttrValue& value) {
  switch (col.type()) {
    case AttrType::kInt64: {
      auto& cell = col.asInt64()[index];
      if (cell == value.i64) {
        return false;
      }
      cell = value.i64;
      return true;
    }
    case AttrType::kDouble: {
      auto& cell = col.asDouble()[index];
      if (cell == value.f64) {
        return false;
      }
      cell = value.f64;
      return true;
    }
    case AttrType::kBool: {
      auto& cell = col.asBool()[index];
      const std::uint8_t raw = value.flag ? 1 : 0;
      if (cell == raw) {
        return false;
      }
      cell = raw;
      return true;
    }
    case AttrType::kString: {
      auto& cell = col.asString()[index];
      if (cell == value.str) {
        return false;
      }
      cell = value.str;
      return true;
    }
    case AttrType::kStringList: {
      auto& cell = col.asStringList()[index];
      if (cell == value.list) {
        return false;
      }
      cell = value.list;
      return true;
    }
  }
  return false;
}

}  // namespace

InstanceBuilder::InstanceBuilder(GraphTemplatePtr tmpl, std::int64_t t0,
                                 std::int64_t delta, Timestep first_timestep)
    : tmpl_(std::move(tmpl)), t0_(t0), delta_(delta), open_(first_timestep) {
  TSG_CHECK(tmpl_ != nullptr);
  TSG_CHECK_MSG(delta_ > 0, "period delta must be positive");
  live_ = GraphInstance(*tmpl_, open_, t0_);  // zero cells: the first base
}

Timestep InstanceBuilder::timestepOf(std::int64_t timestamp) const {
  std::int64_t diff = timestamp - t0_;
  // Floor division so pre-history timestamps map below timestep 0.
  if (diff < 0) {
    diff -= delta_ - 1;
  }
  return static_cast<Timestep>(diff / delta_);
}

Status InstanceBuilder::stage(const GraphEvent& ev) {
  const AttributeSchema& schema = ev.target == EventTarget::kVertex
                                      ? tmpl_->vertexSchema()
                                      : tmpl_->edgeSchema();
  const std::size_t domain = ev.target == EventTarget::kVertex
                                 ? tmpl_->numVertices()
                                 : tmpl_->numEdges();
  if (ev.attr >= schema.size()) {
    return Status::invalidArgument("event attr " + std::to_string(ev.attr) +
                                   " out of range");
  }
  if (ev.index >= domain) {
    return Status::invalidArgument("event index " + std::to_string(ev.index) +
                                   " out of range");
  }
  if (schema.at(ev.attr).type != ev.value.type) {
    return Status::invalidArgument(
        "event value type mismatch for attribute '" + schema.at(ev.attr).name +
        "'");
  }
  const auto key = std::make_tuple(static_cast<std::uint8_t>(ev.target),
                                   ev.attr, ev.index);
  auto order_bytes = ev.value.canonicalBytes();
  auto [it, inserted] = staged_.try_emplace(key);
  Winner& w = it->second;
  // Arrival-order independence: the winning write is the largest
  // (timestamp, canonical bytes) pair; duplicates are no-ops.
  if (inserted || std::tie(ev.timestamp, order_bytes) >
                      std::tie(w.timestamp, w.order_bytes)) {
    w.timestamp = ev.timestamp;
    w.order_bytes = std::move(order_bytes);
    w.value = ev.value;
  }
  return Status::ok();
}

InstanceBuilder::Sealed InstanceBuilder::seal() {
  Sealed out;
  out.timestep = open_;
  out.timestamp = t0_ + static_cast<std::int64_t>(open_) * delta_;
  for (auto& [key, winner] : staged_) {
    const auto [target, attr, index] = key;
    const bool vertex =
        target == static_cast<std::uint8_t>(EventTarget::kVertex);
    if (applyCell(vertex ? live_.vertexCol(attr) : live_.edgeCol(attr), index,
                  winner.value)) {
      out.changes.push_back(CellChange{
          .target = static_cast<EventTarget>(target),
          .attr = attr,
          .index = index,
          .value = std::move(winner.value)});
    }
  }
  staged_.clear();
  ++open_;
  return out;
}

}  // namespace stream
}  // namespace tsg
