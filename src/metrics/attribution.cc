#include "metrics/attribution.h"

#include <algorithm>
#include <cmath>

namespace tsg {

std::vector<SubgraphCosts> AttributionTable::subgraphTotals() const {
  std::vector<SubgraphCosts> totals(subgraphs.size());
  for (const auto& row : rows) {
    for (std::size_t sg = 0; sg < row.size() && sg < totals.size(); ++sg) {
      totals[sg] += row[sg];
    }
  }
  return totals;
}

std::vector<std::int64_t> AttributionTable::partitionComputeNs() const {
  std::vector<std::int64_t> loads(num_partitions, 0);
  const auto totals = subgraphTotals();
  for (std::size_t sg = 0; sg < totals.size(); ++sg) {
    const PartitionId p = subgraphs[sg].partition;
    if (p < loads.size()) {
      loads[p] += totals[sg].compute_ns;
    }
  }
  return loads;
}

double AttributionTable::rowGini(std::int32_t row) const {
  if (row < 0 || static_cast<std::size_t>(row) >= rows.size()) {
    return 0.0;
  }
  std::vector<std::int64_t> values;
  values.reserve(rows[static_cast<std::size_t>(row)].size());
  for (const auto& cell : rows[static_cast<std::size_t>(row)]) {
    values.push_back(cell.compute_ns);
  }
  return giniCoefficient(values);
}

double giniCoefficient(const std::vector<std::int64_t>& values) {
  if (values.empty()) {
    return 0.0;
  }
  std::vector<std::int64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  double weighted = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const double v = static_cast<double>(std::max<std::int64_t>(0, sorted[i]));
    sum += v;
    weighted += v * static_cast<double>(i + 1);
  }
  if (sum <= 0.0) {
    return 0.0;
  }
  const double n = static_cast<double>(sorted.size());
  // Standard rank formula: G = (2 * sum_i i*x_(i) ) / (n * sum x) - (n+1)/n.
  return (2.0 * weighted) / (n * sum) - (n + 1.0) / n;
}

namespace {

void writeHotList(JsonWriter& w, const std::vector<HotVertex>& list) {
  w.beginArray();
  for (const HotVertex& h : list) {
    w.beginObject();
    w.kv("vertex", h.vertex);
    w.kv("partition", h.partition);
    w.kv("weight", h.weight);
    w.kv("error", h.error);
    w.endObject();
  }
  w.endArray();
}

Result<std::vector<HotVertex>> parseHotList(const JsonValue* v) {
  std::vector<HotVertex> out;
  if (v == nullptr) {
    return Result<std::vector<HotVertex>>(std::move(out));
  }
  if (!v->isArray()) {
    return Status::corruptData("attribution: hot list is not an array");
  }
  out.reserve(v->array().size());
  for (const JsonValue& e : v->array()) {
    HotVertex h;
    h.vertex = static_cast<std::uint64_t>(e.intOr("vertex", 0));
    h.partition = static_cast<PartitionId>(e.intOr("partition", 0));
    h.weight = static_cast<std::uint64_t>(e.intOr("weight", 0));
    h.error = static_cast<std::uint64_t>(e.intOr("error", 0));
    out.push_back(h);
  }
  return Result<std::vector<HotVertex>>(std::move(out));
}

template <typename T>
void writeNumberArray(JsonWriter& w, const std::vector<T>& values) {
  w.beginArray();
  for (const T& v : values) {
    w.value(v);
  }
  w.endArray();
}

template <typename T>
Status parseNumberArray(const JsonValue* v, std::vector<T>& out) {
  out.clear();
  if (v == nullptr) {
    return Status::ok();
  }
  if (!v->isArray()) {
    return Status::corruptData("attribution: expected a number array");
  }
  out.reserve(v->array().size());
  for (const JsonValue& e : v->array()) {
    if (!e.isNumber()) {
      return Status::corruptData("attribution: non-numeric array element");
    }
    out.push_back(static_cast<T>(e.intValue()));
  }
  return Status::ok();
}

Status checkCount(const std::string& field, std::size_t got,
                  std::size_t want) {
  if (got == want) {
    return Status::ok();
  }
  return Status::corruptData("attribution: " + field + " has " +
                             std::to_string(got) + " entries, expected " +
                             std::to_string(want));
}

}  // namespace

void attributionToJson(JsonWriter& w, const AttributionTable& table) {
  w.beginObject();
  w.kv("schema_version", table.schema_version);
  w.kv("num_partitions", table.num_partitions);
  w.kv("first_timestep", table.first_timestep);
  w.kv("num_rows", table.num_rows);
  w.kv("sample_every", table.sample_every);

  w.key("subgraphs");
  w.beginArray();
  for (const SubgraphMeta& m : table.subgraphs) {
    w.beginObject();
    w.kv("id", m.id);
    w.kv("partition", m.partition);
    w.kv("vertices", m.vertices);
    w.kv("local_edges", m.local_edges);
    w.kv("remote_edges", m.remote_edges);
    w.endObject();
  }
  w.endArray();

  // Rows are dense [compute_ns, computes, msgs_out, bytes_out] cells; the
  // subgraph index is positional.
  w.key("rows");
  w.beginArray();
  for (const auto& row : table.rows) {
    w.beginArray();
    for (const SubgraphCosts& c : row) {
      w.beginArray();
      w.value(c.compute_ns);
      w.value(c.computes);
      w.value(c.msgs_out);
      w.value(c.bytes_out);
      w.endArray();
    }
    w.endArray();
  }
  w.endArray();

  w.key("msgs_in");
  writeNumberArray(w, table.msgs_in);
  w.key("bytes_in");
  writeNumberArray(w, table.bytes_in);

  w.key("hot_compute");
  writeHotList(w, table.hot_compute);
  w.key("hot_fanout");
  writeHotList(w, table.hot_fanout);
  w.kv("sketch_weight_compute", table.sketch_weight_compute);
  w.kv("sketch_weight_fanout", table.sketch_weight_fanout);
  w.endObject();
}

Result<AttributionTable> attributionFromJson(const JsonValue& v) {
  if (!v.isObject()) {
    return Status::corruptData("attribution: not an object");
  }
  AttributionTable table;
  table.schema_version =
      static_cast<std::int32_t>(v.intOr("schema_version", -1));
  if (table.schema_version != kAttributionSchemaVersion) {
    return Status::corruptData(
        "attribution: unsupported schema_version " +
        std::to_string(table.schema_version));
  }
  table.num_partitions =
      static_cast<std::uint32_t>(v.intOr("num_partitions", 0));
  table.first_timestep = static_cast<Timestep>(v.intOr("first_timestep", 0));
  table.num_rows = static_cast<std::int32_t>(v.intOr("num_rows", 0));
  table.sample_every = static_cast<std::uint32_t>(v.intOr("sample_every", 1));

  const JsonValue* subgraphs = v.find("subgraphs");
  if (subgraphs == nullptr || !subgraphs->isArray()) {
    return Status::corruptData("attribution: missing subgraphs array");
  }
  table.subgraphs.reserve(subgraphs->array().size());
  for (const JsonValue& e : subgraphs->array()) {
    SubgraphMeta m;
    m.id = static_cast<SubgraphId>(e.intOr("id", 0));
    m.partition = static_cast<PartitionId>(e.intOr("partition", 0));
    m.vertices = static_cast<std::uint64_t>(e.intOr("vertices", 0));
    m.local_edges = static_cast<std::uint64_t>(e.intOr("local_edges", 0));
    m.remote_edges = static_cast<std::uint64_t>(e.intOr("remote_edges", 0));
    if (m.partition >= table.num_partitions) {
      return Status::corruptData(
          "attribution: subgraph " + std::to_string(table.subgraphs.size()) +
          " has partition " + std::to_string(m.partition) +
          ", not below num_partitions " +
          std::to_string(table.num_partitions));
    }
    table.subgraphs.push_back(m);
  }

  const JsonValue* rows = v.find("rows");
  if (rows == nullptr || !rows->isArray()) {
    return Status::corruptData("attribution: missing rows array");
  }
  table.rows.reserve(rows->array().size());
  for (const JsonValue& row : rows->array()) {
    if (!row.isArray()) {
      return Status::corruptData("attribution: row is not an array");
    }
    std::vector<SubgraphCosts> cells;
    cells.reserve(row.array().size());
    for (const JsonValue& cell : row.array()) {
      if (!cell.isArray() || cell.array().size() != 4) {
        return Status::corruptData(
            "attribution: cell is not a 4-element array");
      }
      SubgraphCosts c;
      c.compute_ns = cell.array()[0].intValue();
      c.computes = static_cast<std::uint64_t>(cell.array()[1].intValue());
      c.msgs_out = static_cast<std::uint64_t>(cell.array()[2].intValue());
      c.bytes_out = static_cast<std::uint64_t>(cell.array()[3].intValue());
      cells.push_back(c);
    }
    table.rows.push_back(std::move(cells));
  }

  Status s = parseNumberArray(v.find("msgs_in"), table.msgs_in);
  if (!s.isOk()) return s;
  s = parseNumberArray(v.find("bytes_in"), table.bytes_in);
  if (!s.isOk()) return s;

  // Readers index rows by row and subgraph and the inbound arrays by
  // subgraph, so the shapes must agree.
  const std::size_t n = table.subgraphs.size();
  if (table.num_rows < 0 ||
      table.rows.size() != static_cast<std::size_t>(table.num_rows)) {
    return Status::corruptData(
        "attribution: rows has " + std::to_string(table.rows.size()) +
        " entries but num_rows is " + std::to_string(table.num_rows));
  }
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    TSG_RETURN_IF_ERROR(checkCount("rows[" + std::to_string(r) + "]",
                                   table.rows[r].size(), n));
  }
  TSG_RETURN_IF_ERROR(checkCount("msgs_in", table.msgs_in.size(), n));
  TSG_RETURN_IF_ERROR(checkCount("bytes_in", table.bytes_in.size(), n));

  auto hot_compute = parseHotList(v.find("hot_compute"));
  if (!hot_compute.isOk()) return hot_compute.status();
  table.hot_compute = std::move(hot_compute).value();
  auto hot_fanout = parseHotList(v.find("hot_fanout"));
  if (!hot_fanout.isOk()) return hot_fanout.status();
  table.hot_fanout = std::move(hot_fanout).value();
  table.sketch_weight_compute =
      static_cast<std::uint64_t>(v.intOr("sketch_weight_compute", 0));
  table.sketch_weight_fanout =
      static_cast<std::uint64_t>(v.intOr("sketch_weight_fanout", 0));
  return Result<AttributionTable>(std::move(table));
}

}  // namespace tsg
