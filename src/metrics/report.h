// Paper-style reporting helpers shared by the benchmark binaries: they turn
// RunStats into the tables and series the evaluation section presents.
#pragma once

#include <string>
#include <string_view>

#include "common/status.h"
#include "metrics/stats.h"

namespace tsg {

// Fig. 6: "time per timestep" series. One line per timestep with the
// modelled parallel time (ms); maintenance rounds are folded into their
// timestep like the paper's synchronized GC is.
std::string renderTimestepSeries(const RunStats& stats,
                                 const std::string& label,
                                 const NetworkModel& net = {});

// Fig. 7a/7c: a per-(timestep, partition) counter as a table.
std::string renderCounterSeries(const RunStats& stats,
                                const std::string& counter,
                                const std::string& label);

// Fig. 7b/7d: per-partition compute / partition-overhead / sync-overhead /
// load split as percentages of that partition's total, next to its
// measured wait blame: the wait it caused the others (ms, and share of all
// the wait caused) and how many of its tasks other workers stole.
std::string renderUtilization(const RunStats& stats, const std::string& label);

// The measured straggler answer, read from the superstep records alone
// (no profiler needed): the wait caused, split into compute and merge
// records, and the dominant straggler — the partition that caused the most
// wait. The per-partition blame is in renderUtilization's table.
std::string renderWaitBlame(const RunStats& stats, const std::string& label);

// One-line run summary: wall clock, modelled time, supersteps, messages
// (delivered and cross-partition).
std::string summarizeRun(const RunStats& stats, const std::string& label,
                         const NetworkModel& net = {});

// Version stamped into every runStatsToJson document as "schema_version".
// Bump on any incompatible change to the exported shape; readers
// (runStatsFromJson, tsgcli analyze) reject other versions rather than
// misparse. Version 2 added each part's wait_caused_ns and stolen.
inline constexpr std::int64_t kRunStatsSchemaVersion = 2;

// Machine-readable export of a full run: totals, per-timestep modelled
// series, per-partition utilization split, every superstep record, the
// MetricsRegistry delta and histogram deltas captured over the run. The
// output is a single JSON object (see DESIGN.md "Observability" for the
// schema).
std::string runStatsToJson(const RunStats& stats, const std::string& label,
                           const NetworkModel& net = {});

// A run re-loaded from a runStatsToJson document. `stats` carries the
// superstep records, counters and wall clock, so every RunStats aggregation
// (modelledParallelNs, partitionUtilization, ...) works on it.
struct LoadedRunStats {
  std::string label;
  RunStats stats;
  // Why the "attribution" block was not loaded (another schema version, a
  // malformed table); ok when it loaded or is absent. Only a reader of the
  // attribution table (`tsgcli analyze --attrib`) fails on it.
  Status attribution_status;
};

// Parses a runStatsToJson document. Fails with CorruptData on malformed
// JSON, a missing "schema_version", or a version this reader does not speak.
// A bad attribution block does not fail the document: the rest of the run
// is readable without it (see LoadedRunStats::attribution_status).
Result<LoadedRunStats> runStatsFromJson(std::string_view text);

}  // namespace tsg
