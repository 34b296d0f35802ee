#include "telemetry/timeline.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "common/json.h"
#include "common/table.h"

namespace tsg {

bool TimelineSeries::isConstant() const {
  if (values.size() <= 1) {
    return true;
  }
  const double first = values.front();
  return std::all_of(values.begin(), values.end(),
                     [first](double v) { return v == first; });
}

const TimelineSeries* Timeline::find(std::string_view name,
                                     std::int32_t partition) const {
  for (const auto& s : series) {
    if (s.partition == partition && s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

Timeline buildTimeline(const std::vector<TelemetrySample>& samples,
                       const TelemetrySampler& sampler) {
  Timeline timeline;
  timeline.label = sampler.options().label;
  timeline.sample_interval_ms =
      static_cast<double>(sampler.options().sample_ms);
  timeline.produced_samples = sampler.producedSamples();
  timeline.missed_ticks = sampler.missedTicks();
  if (samples.empty()) {
    return timeline;
  }
  timeline.start_ts_ns = samples.front().ts_ns;

  const std::size_t n = samples.size();
  timeline.t_ms.reserve(n);
  for (const auto& s : samples) {
    timeline.t_ms.push_back(
        static_cast<double>(s.ts_ns - timeline.start_ts_ns) / 1e6);
  }

  // Column store keyed by (name, partition, kind); values default to 0
  // before a series' first appearance.
  std::map<std::tuple<std::string, std::int32_t, std::string>,
           std::vector<double>>
      columns;
  auto column = [&](const std::string& name, std::int32_t partition,
                    const char* kind) -> std::vector<double>& {
    auto& col = columns[{name, partition, kind}];
    if (col.empty()) {
      col.assign(n, 0.0);
    }
    return col;
  };

  for (std::size_t i = 0; i < n; ++i) {
    const TelemetrySample& s = samples[i];
    for (const auto& p : s.points) {
      column(p.name, p.partition, p.is_gauge ? "gauge" : "counter")[i] =
          static_cast<double>(p.value);
    }
    for (const auto& h : s.hists) {
      column(h.name + ".count", h.partition, "counter")[i] =
          static_cast<double>(h.count);
      column(h.name + ".p50", h.partition, "quantile")[i] =
          static_cast<double>(h.p50);
      column(h.name + ".p99", h.partition, "quantile")[i] =
          static_cast<double>(h.p99);
    }
    if (s.proc.valid) {
      column("process.rss_bytes", -1, "gauge")[i] =
          static_cast<double>(s.proc.rss_bytes);
      column("process.cpu_ns", -1, "counter")[i] =
          static_cast<double>(s.proc.cpu_ns);
      column("process.threads", -1, "gauge")[i] =
          static_cast<double>(s.proc.threads);
    }
  }

  timeline.series.reserve(columns.size());
  for (auto& [key, values] : columns) {
    TimelineSeries series;
    series.name = std::get<0>(key);
    series.partition = std::get<1>(key);
    series.kind = std::get<2>(key);
    series.values = std::move(values);
    timeline.series.push_back(std::move(series));
  }
  std::sort(timeline.series.begin(), timeline.series.end(),
            [](const TimelineSeries& a, const TimelineSeries& b) {
              return std::tie(a.name, a.partition) <
                     std::tie(b.name, b.partition);
            });
  return timeline;
}

std::string timelineToJson(const Timeline& timeline) {
  JsonWriter json(1 << 16);
  json.beginObject();
  json.kv("schema_version", std::int64_t{timeline.schema_version});
  json.kv("label", timeline.label);
  json.kv("sample_interval_ms", timeline.sample_interval_ms);
  json.kv("start_ts_ns", timeline.start_ts_ns);
  json.kv("produced_samples", timeline.produced_samples);
  json.kv("missed_ticks", timeline.missed_ticks);
  json.key("t_ms");
  json.beginArray();
  for (const double t : timeline.t_ms) {
    json.value(t);
  }
  json.endArray();
  json.key("series");
  json.beginArray();
  for (const auto& s : timeline.series) {
    json.beginObject();
    json.kv("name", s.name);
    json.kv("partition", std::int64_t{s.partition});
    json.kv("kind", s.kind);
    json.key("values");
    json.beginArray();
    for (const double v : s.values) {
      json.value(v);
    }
    json.endArray();
    json.endObject();
  }
  json.endArray();
  json.endObject();
  return json.take();
}

Result<Timeline> timelineFromJson(std::string_view text) {
  auto parsed = JsonValue::parse(text);
  if (!parsed.isOk()) {
    return parsed.status();
  }
  const JsonValue& root = parsed.value();
  if (!root.isObject()) {
    return Status::invalidArgument("timeline: root is not an object");
  }
  Timeline timeline;
  timeline.schema_version =
      static_cast<int>(root.intOr("schema_version", 0));
  if (timeline.schema_version != kTimelineSchemaVersion) {
    return Status::invalidArgument(
        "timeline: unsupported schema_version " +
        std::to_string(timeline.schema_version));
  }
  timeline.label = root.stringOr("label", "");
  timeline.sample_interval_ms = root.doubleOr("sample_interval_ms", 0.0);
  timeline.start_ts_ns = root.intOr("start_ts_ns", 0);
  timeline.produced_samples =
      static_cast<std::uint64_t>(root.intOr("produced_samples", 0));
  timeline.missed_ticks =
      static_cast<std::uint64_t>(root.intOr("missed_ticks", 0));

  const JsonValue* t_ms = root.find("t_ms");
  if (t_ms == nullptr || !t_ms->isArray()) {
    return Status::invalidArgument("timeline: missing t_ms array");
  }
  timeline.t_ms.reserve(t_ms->array().size());
  for (const auto& v : t_ms->array()) {
    timeline.t_ms.push_back(v.doubleValue());
  }

  const JsonValue* series = root.find("series");
  if (series == nullptr || !series->isArray()) {
    return Status::invalidArgument("timeline: missing series array");
  }
  for (const auto& entry : series->array()) {
    if (!entry.isObject()) {
      return Status::invalidArgument("timeline: series entry not an object");
    }
    TimelineSeries s;
    s.name = entry.stringOr("name", "");
    s.partition = static_cast<std::int32_t>(entry.intOr("partition", -1));
    s.kind = entry.stringOr("kind", "gauge");
    const JsonValue* values = entry.find("values");
    if (values == nullptr || !values->isArray()) {
      return Status::invalidArgument("timeline: series \"" + s.name +
                                     "\" has no values array");
    }
    if (values->array().size() != timeline.t_ms.size()) {
      return Status::invalidArgument(
          "timeline: series \"" + s.name +
          "\" length disagrees with the time axis");
    }
    s.values.reserve(values->array().size());
    for (const auto& v : values->array()) {
      s.values.push_back(v.doubleValue());
    }
    timeline.series.push_back(std::move(s));
  }
  return timeline;
}

Status writeTimelineFile(const std::string& path, const Timeline& timeline) {
  if (!writeTextFile(path, timelineToJson(timeline))) {
    return Status::ioError("cannot write timeline to " + path);
  }
  return Status::ok();
}

namespace {

// Mean of values[lo, hi) — bucket aggregation for the curve rows.
double meanOf(const std::vector<double>& values, std::size_t lo,
              std::size_t hi) {
  if (lo >= hi || hi > values.size()) {
    return 0.0;
  }
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) {
    sum += values[i];
  }
  return sum / static_cast<double>(hi - lo);
}

std::string utilizationBar(double fraction, int width) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  const int filled = static_cast<int>(std::lround(fraction * width));
  std::string bar;
  bar.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    bar += i < filled ? '#' : '.';
  }
  return bar;
}

}  // namespace

std::string renderTimelineCurves(const Timeline& timeline, int max_rows) {
  const std::size_t n = timeline.t_ms.size();
  std::string out = "Timeline";
  if (!timeline.label.empty()) {
    out += " (" + timeline.label + ")";
  }
  out += ": " + std::to_string(n) + " samples @ " +
         TextTable::fmtDouble(timeline.sample_interval_ms, 1) + " ms";
  if (timeline.missed_ticks != 0) {
    out += " [missed ticks " + std::to_string(timeline.missed_ticks) + "]";
  }
  out += "\n";
  if (n == 0) {
    return out + "(no samples)\n";
  }

  const TimelineSeries* cpu = timeline.find("process.cpu_ns");
  const TimelineSeries* rss = timeline.find("process.rss_bytes");
  const TimelineSeries* ready = timeline.find("cluster.ready_queue_depth");
  const TimelineSeries* inflight = timeline.find("bus.inflight_messages");
  const TimelineSeries* timestep = timeline.find("engine.current_timestep");
  const TimelineSeries* superstep = timeline.find("engine.current_superstep");
  const TimelineSeries* delivered = timeline.find("bus.messages_delivered");
  const TimelineSeries* threads = timeline.find("process.threads");

  const int rows =
      static_cast<int>(std::min<std::size_t>(n, std::max(1, max_rows)));
  TextTable table({"t_ms", "step", "ss", "cpu", "util", "rss_mb", "ready",
                   "inflight", "msg/s"});
  for (int r = 0; r < rows; ++r) {
    const std::size_t lo = n * static_cast<std::size_t>(r) /
                           static_cast<std::size_t>(rows);
    std::size_t hi = n * (static_cast<std::size_t>(r) + 1) /
                     static_cast<std::size_t>(rows);
    hi = std::max(hi, lo + 1);

    // CPU utilization over the bucket: ΔCPU time / Δwall = cores busy;
    // normalized by the thread count for the bar.
    double cores_busy = 0.0;
    double util = 0.0;
    const std::size_t d_lo = lo;
    const std::size_t d_hi = std::min(hi, n - 1);
    if (cpu != nullptr && d_hi > d_lo) {
      const double wall_ms = timeline.t_ms[d_hi] - timeline.t_ms[d_lo];
      if (wall_ms > 0.0) {
        cores_busy =
            (cpu->values[d_hi] - cpu->values[d_lo]) / (wall_ms * 1e6);
        const double nthreads =
            threads != nullptr ? meanOf(threads->values, lo, hi) : 0.0;
        util = nthreads > 0.0 ? cores_busy / nthreads : 0.0;
      }
    }
    double msgs_per_s = 0.0;
    if (delivered != nullptr && d_hi > d_lo) {
      const double wall_ms = timeline.t_ms[d_hi] - timeline.t_ms[d_lo];
      if (wall_ms > 0.0) {
        msgs_per_s = (delivered->values[d_hi] - delivered->values[d_lo]) /
                     (wall_ms / 1e3);
      }
    }

    table.addRow({
        TextTable::fmtDouble(timeline.t_ms[lo], 1),
        timestep != nullptr
            ? std::to_string(
                  static_cast<std::int64_t>(meanOf(timestep->values, lo, hi)))
            : "-",
        superstep != nullptr
            ? std::to_string(static_cast<std::int64_t>(
                  meanOf(superstep->values, lo, hi)))
            : "-",
        TextTable::fmtDouble(cores_busy, 2),
        utilizationBar(util, 10),
        rss != nullptr
            ? TextTable::fmtDouble(meanOf(rss->values, lo, hi) / (1024.0 * 1024.0), 1)
            : "-",
        ready != nullptr
            ? TextTable::fmtDouble(meanOf(ready->values, lo, hi), 1)
            : "-",
        inflight != nullptr
            ? TextTable::fmtDouble(meanOf(inflight->values, lo, hi), 1)
            : "-",
        TextTable::fmtDouble(msgs_per_s, 0),
    });
  }
  out += table.render();
  return out;
}

}  // namespace tsg
