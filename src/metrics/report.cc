#include "metrics/report.h"

#include <sstream>

#include "common/json.h"
#include "common/stopwatch.h"
#include "common/table.h"

namespace tsg {

std::string renderTimestepSeries(const RunStats& stats,
                                 const std::string& label,
                                 const NetworkModel& net) {
  TextTable table({"timestep", "modelled_ms"});
  const std::int32_t timesteps = stats.numTimesteps();
  for (Timestep t = 0; t < timesteps; ++t) {
    const std::int64_t ns = stats.modelledTimestepNs(t, net);
    if (ns == 0) {
      continue;  // timestep not executed (e.g. early While-mode stop)
    }
    table.addRow({std::to_string(t), TextTable::fmtDouble(nsToMs(ns), 3)});
  }
  std::ostringstream out;
  out << "== per-timestep time: " << label << " ==\n" << table.render();
  return out.str();
}

std::string renderCounterSeries(const RunStats& stats,
                                const std::string& counter,
                                const std::string& label) {
  std::ostringstream out;
  out << "== counter '" << counter << "': " << label << " ==\n";
  const auto it = stats.counters().find(counter);
  if (it == stats.counters().end()) {
    out << "(no data)\n";
    return out.str();
  }
  std::vector<std::string> header{"timestep"};
  for (PartitionId p = 0; p < stats.numPartitions(); ++p) {
    header.push_back("part" + std::to_string(p));
  }
  header.push_back("total");
  TextTable table(std::move(header));
  for (std::size_t t = 0; t < it->second.size(); ++t) {
    const auto& row = it->second[t];
    std::vector<std::string> cells{std::to_string(t)};
    std::uint64_t total = 0;
    for (const auto v : row) {
      cells.push_back(std::to_string(v));
      total += v;
    }
    cells.push_back(std::to_string(total));
    table.addRow(std::move(cells));
  }
  out << table.render();
  return out.str();
}

std::string renderUtilization(const RunStats& stats,
                              const std::string& label) {
  TextTable table({"partition", "compute", "partition_oh", "sync_oh", "load",
                   "caused_ms", "caused_share", "steals"});
  const auto util = stats.partitionUtilization();
  std::int64_t caused_ns = 0;
  for (const auto& u : util) {
    caused_ns += u.wait_caused_ns;
  }
  for (PartitionId p = 0; p < util.size(); ++p) {
    const auto& u = util[p];
    const auto total = static_cast<double>(u.totalNs());
    auto pct = [&](std::int64_t ns) {
      return total == 0.0
                 ? std::string("0%")
                 : TextTable::fmtPercent(static_cast<double>(ns) / total, 1);
    };
    table.addRow(
        {std::to_string(p), pct(u.compute_ns), pct(u.send_ns),
         pct(u.sync_ns), pct(u.load_ns),
         TextTable::fmtDouble(nsToMs(u.wait_caused_ns), 3),
         caused_ns > 0
             ? TextTable::fmtPercent(static_cast<double>(u.wait_caused_ns) /
                                         static_cast<double>(caused_ns),
                                     1)
             : std::string("-"),
         std::to_string(u.stolen)});
  }
  std::ostringstream out;
  out << "== utilization split: " << label << " ==\n" << table.render();
  return out.str();
}

std::string renderWaitBlame(const RunStats& stats, const std::string& label) {
  std::int64_t caused_ns = 0;
  std::int64_t merge_caused_ns = 0;
  for (const auto& rec : stats.supersteps()) {
    for (PartitionId p = 0;
         p < rec.parts.size() && p < stats.numPartitions(); ++p) {
      caused_ns += rec.parts[p].wait_caused_ns;
      merge_caused_ns += rec.is_merge_phase ? rec.parts[p].wait_caused_ns : 0;
    }
  }
  const auto ms = [](std::int64_t ns) {
    return TextTable::fmtDouble(nsToMs(ns), 3);
  };
  std::ostringstream out;
  out << "== measured wait blame: " << label << " ==\n"
      << "wait caused " << ms(caused_ns) << " ms = compute records "
      << ms(caused_ns - merge_caused_ns) << " ms + merge records "
      << ms(merge_caused_ns) << " ms\n";
  const auto util = stats.partitionUtilization();
  if (const auto straggler = RunStats::dominantStraggler(util)) {
    out << "dominant straggler: partition " << straggler->partition << " ("
        << TextTable::fmtPercent(straggler->share, 1)
        << " of the wait caused)\n";
  } else {
    out << "dominant straggler: none (no measured wait)\n";
  }
  return out.str();
}

std::string summarizeRun(const RunStats& stats, const std::string& label,
                         const NetworkModel& net) {
  std::ostringstream out;
  out << label << ": wall=" << TextTable::fmtDouble(
             nsToSec(stats.wallClockNs()), 3)
      << "s modelled=" << TextTable::fmtDouble(
             nsToSec(stats.modelledParallelNs(net)), 3)
      << "s supersteps=" << stats.totalSupersteps()
      << " messages=" << stats.totalMessages()
      << " bytes=" << stats.totalBytes()
      << " xpart_messages=" << stats.totalCrossPartitionMessages()
      << " xpart_bytes=" << stats.totalCrossPartitionBytes();
  return out.str();
}

std::string runStatsToJson(const RunStats& stats, const std::string& label,
                           const NetworkModel& net) {
  JsonWriter json;
  json.beginObject();
  json.kv("schema_version", kRunStatsSchemaVersion);
  json.kv("label", label);
  json.kv("num_partitions", stats.numPartitions());
  json.kv("num_timesteps", stats.numTimesteps());
  json.kv("wall_clock_ns", stats.wallClockNs());
  json.kv("modelled_parallel_ns", stats.modelledParallelNs(net));

  json.key("totals");
  json.beginObject();
  json.kv("supersteps", stats.totalSupersteps());
  json.kv("delivered_messages", stats.totalMessages());
  json.kv("delivered_bytes", stats.totalBytes());
  json.kv("cross_partition_messages", stats.totalCrossPartitionMessages());
  json.kv("cross_partition_bytes", stats.totalCrossPartitionBytes());
  json.endObject();

  // Fig. 6 series: modelled time per executed timestep.
  json.key("timesteps");
  json.beginArray();
  const std::int32_t timesteps = stats.numTimesteps();
  for (Timestep t = 0; t < timesteps; ++t) {
    const std::int64_t ns = stats.modelledTimestepNs(t, net);
    if (ns == 0) {
      continue;  // timestep not executed (e.g. early While-mode stop)
    }
    json.beginObject();
    json.kv("timestep", t);
    json.kv("modelled_ns", ns);
    json.endObject();
  }
  json.endArray();

  // Fig. 7b/7d split, in absolute nanoseconds (consumers derive percents).
  json.key("utilization");
  json.beginArray();
  const auto util = stats.partitionUtilization();
  for (PartitionId p = 0; p < util.size(); ++p) {
    const auto& u = util[p];
    json.beginObject();
    json.kv("partition", p);
    json.kv("compute_ns", u.compute_ns);
    json.kv("send_ns", u.send_ns);
    json.kv("sync_ns", u.sync_ns);
    json.kv("load_ns", u.load_ns);
    json.kv("wait_caused_ns", u.wait_caused_ns);
    json.kv("stolen", u.stolen);
    json.endObject();
  }
  json.endArray();

  json.key("supersteps");
  json.beginArray();
  for (const auto& rec : stats.supersteps()) {
    json.beginObject();
    json.kv("timestep", rec.timestep);
    json.kv("superstep", rec.superstep);
    json.kv("is_merge_phase", rec.is_merge_phase);
    json.kv("delivered_messages", rec.delivered_messages);
    json.kv("delivered_bytes", rec.delivered_bytes);
    json.kv("cross_partition_messages", rec.cross_partition_messages);
    json.kv("cross_partition_bytes", rec.cross_partition_bytes);
    json.key("parts");
    json.beginArray();
    for (const auto& ps : rec.parts) {
      json.beginObject();
      json.kv("compute_ns", ps.compute_ns);
      json.kv("send_ns", ps.send_ns);
      json.kv("sync_ns", ps.sync_ns);
      json.kv("load_ns", ps.load_ns);
      json.kv("messages_sent", ps.messages_sent);
      json.kv("bytes_sent", ps.bytes_sent);
      json.kv("subgraphs_computed", ps.subgraphs_computed);
      json.kv("wait_caused_ns", ps.wait_caused_ns);
      json.kv("stolen", ps.stolen);
      json.endObject();
    }
    json.endArray();
    json.endObject();
  }
  json.endArray();

  // User counters: counters[name][timestep][partition].
  json.key("counters");
  json.beginObject();
  for (const auto& [name, rows] : stats.counters()) {
    json.key(name);
    json.beginArray();
    for (const auto& row : rows) {
      json.beginArray();
      for (const auto v : row) {
        json.value(v);
      }
      json.endArray();
    }
    json.endArray();
  }
  json.endObject();

  // MetricsRegistry delta attached by the engine (empty for stats built by
  // hand or by engines predating the registry).
  json.key("metrics");
  json.beginArray();
  for (const auto& point : stats.metrics()) {
    json.beginObject();
    json.kv("name", point.name);
    if (point.partition != MetricsRegistry::kNoPartition) {
      json.kv("partition", point.partition);
    }
    json.kv("kind", point.is_gauge ? "gauge" : "counter");
    json.kv("value", point.value);
    json.endObject();
  }
  json.endArray();

  // Histogram deltas (superstep phase durations, batch sizes). Buckets are
  // exported sparsely as [bucket_index, count] pairs; quantiles are resolved
  // here so consumers without the bucket math still get p50/p90/p99.
  json.key("histograms");
  json.beginArray();
  for (const auto& h : stats.histograms()) {
    json.beginObject();
    json.kv("name", h.name);
    if (h.partition != MetricsRegistry::kNoPartition) {
      json.kv("partition", h.partition);
    }
    json.kv("count", h.count);
    json.kv("sum", h.sum);
    json.kv("max", h.max);
    json.kv("p50", h.quantile(0.50));
    json.kv("p90", h.quantile(0.90));
    json.kv("p99", h.quantile(0.99));
    json.key("buckets");
    json.beginArray();
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) {
        continue;
      }
      json.beginArray();
      json.value(static_cast<std::uint64_t>(i));
      json.value(h.buckets[i]);
      json.endArray();
    }
    json.endArray();
    json.endObject();
  }
  json.endArray();

  // Cost-attribution table (present only when the run was profiled).
  if (stats.hasAttribution()) {
    json.key("attribution");
    attributionToJson(json, stats.attribution());
  }

  json.endObject();
  return json.take();
}

namespace {

std::uint64_t u64Or(const JsonValue& obj, std::string_view key,
                    std::uint64_t fallback) {
  return static_cast<std::uint64_t>(
      obj.intOr(key, static_cast<std::int64_t>(fallback)));
}

}  // namespace

Result<LoadedRunStats> runStatsFromJson(std::string_view text) {
  auto parsed = JsonValue::parse(text);
  if (!parsed.isOk()) {
    return Status::corruptData("run stats JSON: " +
                               parsed.status().message());
  }
  const JsonValue& doc = parsed.value();
  if (!doc.isObject()) {
    return Status::corruptData("run stats JSON: top level is not an object");
  }
  const JsonValue* version = doc.find("schema_version");
  if (version == nullptr || !version->isNumber()) {
    return Status::corruptData(
        "run stats JSON has no \"schema_version\" field (produced by a "
        "pre-versioning build?)");
  }
  if (version->intValue() != kRunStatsSchemaVersion) {
    return Status::corruptData(
        "run stats schema_version " + std::to_string(version->intValue()) +
        " is not supported (this build reads version " +
        std::to_string(kRunStatsSchemaVersion) + ")");
  }

  LoadedRunStats loaded;
  loaded.label = doc.stringOr("label", "");
  loaded.stats =
      RunStats(static_cast<std::uint32_t>(doc.intOr("num_partitions", 0)));
  loaded.stats.setWallClockNs(doc.intOr("wall_clock_ns", 0));

  const JsonValue* supersteps = doc.find("supersteps");
  if (supersteps == nullptr || !supersteps->isArray()) {
    return Status::corruptData("run stats JSON: missing \"supersteps\" array");
  }
  for (const JsonValue& rec_json : supersteps->array()) {
    if (!rec_json.isObject()) {
      return Status::corruptData(
          "run stats JSON: superstep entry is not an object");
    }
    SuperstepRecord rec;
    rec.timestep = static_cast<Timestep>(rec_json.intOr("timestep", 0));
    rec.superstep =
        static_cast<std::int32_t>(rec_json.intOr("superstep", 0));
    const JsonValue* merge = rec_json.find("is_merge_phase");
    rec.is_merge_phase = merge != nullptr && merge->isBool() &&
                         merge->boolValue();
    rec.delivered_messages = u64Or(rec_json, "delivered_messages", 0);
    rec.delivered_bytes = u64Or(rec_json, "delivered_bytes", 0);
    rec.cross_partition_messages =
        u64Or(rec_json, "cross_partition_messages", 0);
    rec.cross_partition_bytes = u64Or(rec_json, "cross_partition_bytes", 0);
    const JsonValue* parts = rec_json.find("parts");
    if (parts != nullptr && parts->isArray()) {
      for (const JsonValue& ps_json : parts->array()) {
        PartitionSuperstepStats ps;
        ps.compute_ns = ps_json.intOr("compute_ns", 0);
        ps.send_ns = ps_json.intOr("send_ns", 0);
        ps.sync_ns = ps_json.intOr("sync_ns", 0);
        ps.load_ns = ps_json.intOr("load_ns", 0);
        ps.messages_sent = u64Or(ps_json, "messages_sent", 0);
        ps.bytes_sent = u64Or(ps_json, "bytes_sent", 0);
        ps.subgraphs_computed = u64Or(ps_json, "subgraphs_computed", 0);
        ps.wait_caused_ns = ps_json.intOr("wait_caused_ns", 0);
        ps.stolen = u64Or(ps_json, "stolen", 0);
        rec.parts.push_back(ps);
      }
    }
    loaded.stats.addSuperstep(std::move(rec));
  }

  // counters[name][timestep][partition] — needed so counterTotal() and the
  // counter tables keep working on re-loaded runs.
  const JsonValue* counters = doc.find("counters");
  if (counters != nullptr && counters->isObject()) {
    for (const auto& [name, rows] : counters->object()) {
      if (!rows.isArray()) {
        continue;
      }
      for (std::size_t t = 0; t < rows.array().size(); ++t) {
        const JsonValue& row = rows.array()[t];
        if (!row.isArray()) {
          continue;
        }
        for (std::size_t p = 0; p < row.array().size(); ++p) {
          const JsonValue& v = row.array()[p];
          if (v.isNumber() && v.intValue() != 0) {
            loaded.stats.addCounter(
                name, static_cast<Timestep>(t), static_cast<PartitionId>(p),
                static_cast<std::uint64_t>(v.intValue()));
          }
        }
      }
    }
  }

  // Registry delta: needed so analyze can report fault counters and
  // scheduler counters (cluster.barrier_wait_ns, engine.ready_wait_ns,
  // steals, skips) from re-loaded runs.
  const JsonValue* metrics = doc.find("metrics");
  if (metrics != nullptr && metrics->isArray()) {
    MetricsRegistry::Snapshot snap;
    for (const JsonValue& m : metrics->array()) {
      if (!m.isObject()) {
        continue;
      }
      MetricsRegistry::Point point;
      point.name = m.stringOr("name", "");
      point.partition = static_cast<std::int32_t>(
          m.intOr("partition", MetricsRegistry::kNoPartition));
      point.is_gauge = m.stringOr("kind", "counter") == "gauge";
      point.value = m.intOr("value", 0);
      snap.push_back(std::move(point));
    }
    loaded.stats.setMetrics(std::move(snap));
  }

  // Histogram deltas: buckets come back from the sparse [index, count]
  // pairs, so quantile() on a re-loaded run answers the same p50/p90/p99
  // the writer resolved (analyze reads those).
  const JsonValue* histograms = doc.find("histograms");
  if (histograms != nullptr && histograms->isArray()) {
    MetricsRegistry::HistogramSnapshots hists;
    for (const JsonValue& h : histograms->array()) {
      if (!h.isObject()) {
        continue;
      }
      MetricsRegistry::HistogramSnapshot snap;
      snap.name = h.stringOr("name", "");
      snap.partition = static_cast<std::int32_t>(
          h.intOr("partition", MetricsRegistry::kNoPartition));
      snap.count = u64Or(h, "count", 0);
      snap.sum = u64Or(h, "sum", 0);
      snap.max = u64Or(h, "max", 0);
      const JsonValue* buckets = h.find("buckets");
      if (buckets != nullptr && buckets->isArray()) {
        for (const JsonValue& pair : buckets->array()) {
          if (!pair.isArray() || pair.array().size() != 2 ||
              !pair.array()[0].isNumber() || !pair.array()[1].isNumber()) {
            return Status::corruptData(
                "run stats JSON: histogram bucket entries must be "
                "[index, count] pairs");
          }
          const auto index =
              static_cast<std::size_t>(pair.array()[0].intValue());
          if (index >= snap.buckets.size()) {
            return Status::corruptData(
                "run stats JSON: histogram bucket index out of range");
          }
          snap.buckets[index] =
              static_cast<std::uint64_t>(pair.array()[1].intValue());
        }
      }
      hists.push_back(std::move(snap));
    }
    loaded.stats.setHistograms(std::move(hists));
  }

  const JsonValue* attribution = doc.find("attribution");
  if (attribution != nullptr) {
    auto table = attributionFromJson(*attribution);
    if (table.isOk()) {
      loaded.stats.setAttribution(std::move(table).value());
    } else {
      loaded.attribution_status = table.status();
    }
  }

  return loaded;
}

}  // namespace tsg
