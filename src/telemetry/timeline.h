// Timeline — the schema-versioned JSON artifact behind `--timeline=out.json`.
//
// A timeline is the columnar form of a run's telemetry samples: one shared
// time axis (milliseconds since the first sample) plus one value column per
// metric series. Series keep their registry names and partition labels, so
// `cluster.ready_queue_depth` in the file is the same series the DESIGN
// doc and the Prometheus exposition talk about; histogram-derived columns
// get `.count` / `.p50` / `.p99` suffixes and process stats appear as
// `process.rss_bytes` / `process.cpu_ns` / `process.threads`.
//
// Consumers: `tsgcli analyze --timeline=` renders phase-aligned
// utilization/progress curves (the paper's Fig. 7 lineage, from a live run
// instead of post-mortem traces), and ci/check_timeline.py validates
// monotonic timestamps and required, moving series in CI.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "telemetry/sampler.h"

namespace tsg {

inline constexpr int kTimelineSchemaVersion = 1;

struct TimelineSeries {
  std::string name;
  std::int32_t partition = -1;  // -1 = not partition-scoped
  std::string kind;             // "counter" | "gauge" | "quantile"
  std::vector<double> values;   // aligned with Timeline::t_ms

  // True if every value equals the first (the acceptance criterion's
  // "non-constant series" is the negation).
  [[nodiscard]] bool isConstant() const;
};

struct Timeline {
  int schema_version = kTimelineSchemaVersion;
  std::string label;
  double sample_interval_ms = 0.0;
  std::int64_t start_ts_ns = 0;        // steady-clock ns of the first sample
  std::uint64_t produced_samples = 0;  // captured (incl. evicted ones)
  std::uint64_t missed_ticks = 0;      // cadence overruns
  std::vector<double> t_ms;            // per-sample time since first sample
  std::vector<TimelineSeries> series;  // sorted by (name, partition)

  [[nodiscard]] const TimelineSeries* find(std::string_view name,
                                           std::int32_t partition = -1) const;
};

// Builds the columnar timeline from raw samples (oldest first), stamped
// with the stopped sampler's label, cadence and tallies. Values before a
// metric's first appearance are 0 — registry cells only ever appear, never
// vanish, so a series is dense from its first sample on.
Timeline buildTimeline(const std::vector<TelemetrySample>& samples,
                       const TelemetrySampler& sampler);

std::string timelineToJson(const Timeline& timeline);
Result<Timeline> timelineFromJson(std::string_view text);

// timelineToJson + writeTextFile.
Status writeTimelineFile(const std::string& path, const Timeline& timeline);

// Fig. 7-style utilization/progress curves as a text table: one row per
// time bucket with CPU utilization, RSS, scheduler/bus levels and engine
// progress. `max_rows` bounds the vertical size (buckets are averaged).
std::string renderTimelineCurves(const Timeline& timeline, int max_rows = 24);

}  // namespace tsg
