#include "stream/replay.h"

#include "common/serialize.h"

namespace tsg {
namespace stream {

namespace {

void diffColumn(const AttributeColumn& prev, const AttributeColumn& cur,
                EventTarget target, std::uint32_t attr, std::int64_t timestamp,
                std::vector<GraphEvent>& out) {
  const auto emit = [&](std::uint32_t index, AttrValue value) {
    GraphEvent ev;
    ev.target = target;
    ev.timestamp = timestamp;
    ev.attr = attr;
    ev.index = index;
    ev.value = std::move(value);
    out.push_back(std::move(ev));
  };
  switch (cur.type()) {
    case AttrType::kInt64: {
      const auto& a = prev.asInt64();
      const auto& b = cur.asInt64();
      for (std::uint32_t i = 0; i < b.size(); ++i) {
        if (a[i] != b[i]) {
          emit(i, AttrValue::ofInt64(b[i]));
        }
      }
      break;
    }
    case AttrType::kDouble: {
      const auto& a = prev.asDouble();
      const auto& b = cur.asDouble();
      for (std::uint32_t i = 0; i < b.size(); ++i) {
        if (a[i] != b[i]) {
          emit(i, AttrValue::ofDouble(b[i]));
        }
      }
      break;
    }
    case AttrType::kBool: {
      const auto& a = prev.asBool();
      const auto& b = cur.asBool();
      for (std::uint32_t i = 0; i < b.size(); ++i) {
        if (a[i] != b[i]) {
          emit(i, AttrValue::ofBool(b[i] != 0));
        }
      }
      break;
    }
    case AttrType::kString: {
      const auto& a = prev.asString();
      const auto& b = cur.asString();
      for (std::uint32_t i = 0; i < b.size(); ++i) {
        if (a[i] != b[i]) {
          emit(i, AttrValue::ofString(b[i]));
        }
      }
      break;
    }
    case AttrType::kStringList: {
      const auto& a = prev.asStringList();
      const auto& b = cur.asStringList();
      for (std::uint32_t i = 0; i < b.size(); ++i) {
        if (a[i] != b[i]) {
          emit(i, AttrValue::ofStringList(b[i]));
        }
      }
      break;
    }
  }
}

}  // namespace

void appendInstanceDiff(const GraphInstance& prev, const GraphInstance& cur,
                        std::vector<GraphEvent>& out) {
  for (std::uint32_t a = 0; a < cur.numVertexAttrs(); ++a) {
    diffColumn(prev.vertexCol(a), cur.vertexCol(a), EventTarget::kVertex, a,
               cur.timestamp(), out);
  }
  for (std::uint32_t a = 0; a < cur.numEdgeAttrs(); ++a) {
    diffColumn(prev.edgeCol(a), cur.edgeCol(a), EventTarget::kEdge, a,
               cur.timestamp(), out);
  }
}

std::vector<GraphEvent> eventsFromCollection(
    const TimeSeriesCollection& coll) {
  std::vector<GraphEvent> out;
  const GraphInstance zero(coll.graphTemplate(), 0, coll.t0());
  for (Timestep t = 0; t < static_cast<Timestep>(coll.numInstances()); ++t) {
    appendInstanceDiff(t == 0 ? zero : coll.instance(t - 1), coll.instance(t),
                       out);
  }
  return out;
}

Status writeEventFile(const std::string& path,
                      const std::vector<GraphEvent>& events,
                      bool end_marker) {
  BinaryWriter w;
  for (const GraphEvent& ev : events) {
    encodeEvent(ev, w);
  }
  if (end_marker) {
    encodeEndOfStream(w);
  }
  return writeFileBytes(path, w.buffer());
}

GraphInstance assembleInstance(const PartitionedGraph& pg,
                               const GraphTemplate& tmpl,
                               InstanceProvider& provider, Timestep t) {
  TSG_CHECK(pg.numPartitions() > 0);
  const PartitionInstanceData& first = provider.instanceFor(0, t);
  GraphInstance out(tmpl, first.timestep, first.timestamp);
  for (PartitionId p = 0; p < pg.numPartitions(); ++p) {
    const PartitionInstanceData& data = provider.instanceFor(p, t);
    const Partition& part = pg.partition(p);
    for (std::uint32_t a = 0; a < out.numVertexAttrs(); ++a) {
      out.vertexCol(a).scatterFrom(data.vertex_cols[a], part.vertices);
    }
    for (std::uint32_t a = 0; a < out.numEdgeAttrs(); ++a) {
      out.edgeCol(a).scatterFrom(data.edge_cols[a], part.edges);
    }
  }
  return out;
}

}  // namespace stream
}  // namespace tsg
