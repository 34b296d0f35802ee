// Shared infrastructure for the paper-reproduction bench binaries.
//
// Datasets: "CARN" = synthetic road lattice (large diameter, uniform low
// degree), "WIKI" = synthetic preferential-attachment graph (power-law,
// small diameter) — the structural stand-ins for the SNAP graphs (see
// DESIGN.md §1). Each bench builds its datasets once into a cache directory
// (default build/bench_data, override with TSG_BENCH_DATA) and reuses them.
//
// Scale: default is laptop-scale (tens of thousands of vertices instead of
// the paper's millions) so the full suite runs in minutes on one core; pass
// --scale=N (percent of default) to grow or shrink everything.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "gofs/dataset.h"
#include "graph/collection.h"
#include "partition/partitioned_graph.h"
#include "metrics/stats.h"

namespace tsg::bench {

enum class GraphKind { kCarn, kWiki };
enum class WorkloadKind { kRoad, kTweet };

struct BenchConfig {
  // Percent of the base dataset size. Default 300 (~200k-vertex graphs):
  // big enough that per-superstep compute dominates the modelled barrier
  // cost, so scaling trends are visible; --scale=100 for quick runs.
  int scale_percent = 300;
  std::uint32_t timesteps = 50;
  std::uint64_t seed = 2015;  // venue year
  std::string data_dir;       // resolved cache directory
  std::string trace_path;     // --trace=PATH: Perfetto trace of the run
  std::string json_path;      // --json=PATH: machine-readable run stats

  // Live telemetry (see src/telemetry/): any output flag arms the sampler;
  // --sample-ms=N sets its cadence (-1 = default 10).
  int sample_ms = -1;
  std::string timeline_path;   // --timeline=PATH: timeline JSON at exit
  std::string prom_path;       // --prom=PATH: Prometheus exposition file
  int prom_port = -1;          // --prom-port=N (-1 = off, 0 = ephemeral)
};

// Parses --scale=, --timesteps=, --seed=, --trace=, --json= and the
// telemetry flags (--sample-ms=, --timeline=, --prom=, --prom-port=) out of
// argv; resolves data_dir, applies TSG_LOG_LEVEL, starts the tracer if
// --trace was given and the telemetry sampler if any telemetry output was.
BenchConfig parseArgs(int argc, char** argv);

// Deterministic templates. CARN default ~22.5k vertices; WIKI ~20k.
GraphTemplatePtr makeTemplate(GraphKind kind, WorkloadKind workload,
                              const BenchConfig& config);

// Hit probabilities mirroring the paper's tuning (§IV-A): high on the road
// lattice, low on the small-world graph, adjusted for our scale so the
// propagation stays alive across all timesteps.
double memeHitProbability(GraphKind kind);

// In-memory instance data for a template.
TimeSeriesCollection makeCollection(GraphTemplatePtr tmpl,
                                    WorkloadKind workload,
                                    GraphKind kind,
                                    const BenchConfig& config);

// Builds (or reuses from cache) a GoFS dataset for (kind, workload, k) with
// the paper's temporal packing of 10, and opens it.
GofsDataset openDataset(GraphKind kind, WorkloadKind workload, std::uint32_t k,
                        const BenchConfig& config);

std::string kindName(GraphKind kind);

// Writes the rendered text both to stdout and to
// <data_dir>/results/<name>.txt for EXPERIMENTS.md collection.
void emit(const BenchConfig& config, const std::string& name,
          const std::string& text);

// Writes runStatsToJson(stats, name) to <json_path>/BENCH_<name>.json
// (--json=DIR names an output directory; it is created if missing). CI
// uploads the BENCH_*.json files. No-op without --json.
void emitRunStatsJson(const BenchConfig& config, const std::string& name,
                      const RunStats& stats);

// Stops the tracer and writes the trace to --trace=PATH, then stops the
// telemetry sampler and writes the --timeline= / final --prom= artifacts
// (each part a no-op without its flag). Call once at the end of main.
void finishTrace(const BenchConfig& config);

}  // namespace tsg::bench
