// tsgcli — command-line front end for the tsgraph library. Run it without
// arguments for usage.
//
// Every algorithm in the registry (algorithms/registry.h) is a run verb
// (`tsgcli ALGO DIR [flags]`) and a `check`, `stream` and `top` target;
// each prints the result summary plus the run's utilization split (the
// Fig. 7b-style table). All analysis commands also accept --trace=PATH
// (Perfetto/Chrome trace-event JSON of the run) and --json=PATH
// (machine-readable RunStats export). `analyze` consumes those --json
// exports and opens with the per-partition time split and measured wait
// blame (the wait each partition caused the others, its stolen tasks),
// then names the dominant straggler.
// Fault tolerance: --checkpoint=DIR persists a recovery point at every
// timestep boundary and --inject=PLAN (or TSG_INJECT) arms the fault
// injector; analyze reports any recoveries a run survived. Log verbosity
// comes from the TSG_LOG_LEVEL environment variable
// (debug|info|warn|error) or the --log-level= flag (the flag wins).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/registry.h"
#include "check/bsp_checker.h"
#include "check/determinism.h"
#include "common/log.h"
#include "common/serialize.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "common/trace.h"
#include "generators/instances.h"
#include "generators/topology.h"
#include "gofs/checkpoint.h"
#include "gofs/dataset.h"
#include "graph/collection.h"
#include "metrics/report.h"
#include "partition/partitioner.h"
#include "profile/advisor.h"
#include "profile/profiler.h"
#include "runtime/fault_injector.h"
#include "stream/ingestor.h"
#include "stream/replay.h"
#include "stream/source.h"
#include "telemetry/proc_stats.h"
#include "telemetry/run_telemetry.h"
#include "telemetry/timeline.h"

#ifdef __linux__
#include <unistd.h>
#endif

namespace {

using namespace tsg;

// --key=value / --flag arguments plus positional arguments. Numeric reads
// parse strictly; a malformed value yields the fallback and is remembered
// in flagError(), which every command checks before doing any work.
struct Args {
  std::vector<std::string> positional;
  FlagMap flags;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    return flags.get(key, fallback);
  }
  [[nodiscard]] std::int64_t getInt(
      const std::string& key, std::int64_t fallback,
      std::int64_t min = std::numeric_limits<std::int64_t>::min(),
      std::int64_t max = std::numeric_limits<std::int64_t>::max()) const {
    return valueOr(flags.getInt(key, fallback, min, max), fallback);
  }
  [[nodiscard]] double getDouble(const std::string& key,
                                 double fallback) const {
    return valueOr(flags.getDouble(key, fallback), fallback);
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return flags.has(key);
  }
  [[nodiscard]] const Status& flagError() const { return flag_error_; }

 private:
  template <typename T>
  T valueOr(Result<T> parsed, T fallback) const {
    if (parsed.isOk()) {
      return parsed.value();
    }
    if (flag_error_.isOk()) {
      flag_error_ = parsed.status();
    }
    return fallback;
  }

  mutable Status flag_error_;
};

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        args.flags.set(arg.substr(2), "1");
      } else {
        args.flags.set(arg.substr(2, eq - 2), arg.substr(eq + 1));
      }
    } else {
      args.positional.push_back(std::move(arg));
    }
  }
  return args;
}

// Ranges for numeric flags: every integer flag is read through
// Args::getInt's [min, max], so a value that would wrap when narrowed, or
// a negative count, exits 2 naming the flag.
constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();
constexpr std::int64_t kUint32Max = std::numeric_limits<std::uint32_t>::max();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
// --profile=TOPK's ceiling: the sketches preallocate TOPK entries each.
constexpr std::int64_t kMaxProfileTopK = std::int64_t{1} << 20;
// --partitions' ceiling: every partition becomes a worker thread at run
// time.
constexpr std::int64_t kMaxPartitions = 1024;

int usage() {
  std::fputs(
      "usage: tsgcli <command> [args]\n"
      "  generate --out=DIR [--kind=road|social] [--vertices=N]\n"
      "           [--timesteps=T] [--partitions=K] [--workload=road|tweet]\n"
      "           [--seed=S] [--closures=P] [--hit=P] [--background=P]\n"
      "           [--packing=N]\n"
      "  inspect  DIR\n"
      "algorithms (each is also a command: ALGO DIR [flags]):\n",
      stderr);
  for (const AlgorithmEntry& entry : algorithms()) {
    std::fprintf(stderr, "  %-11.*s DIR%s%.*s\n",
                 static_cast<int>(entry.name.size()), entry.name.data(),
                 entry.flags.empty() ? "" : " ",
                 static_cast<int>(entry.flags.size()), entry.flags.data());
  }
  std::fputs(
      "  check    ALGO DIR [--runs=N] [--seed=S] [--schedule=bsp|async]\n"
      "           [--stream] [--json=PATH]  (stats of the last run; with\n"
      "            --profile, the vertex engines' attribution reaches\n"
      "            `analyze`)\n"
      "           runs ALGO N times under perturbed worker schedules with\n"
      "           the BSP protocol checker on; exit 1 if outputs diverge\n"
      "           (with --schedule=async, also runs the BSP reference once\n"
      "            after the harness and requires the async digests to\n"
      "            match it; with --stream, every run replays the dataset\n"
      "            through the streaming ingest pipeline and must match the\n"
      "            cold batch BSP reference)\n"
      "  stream   ALGO DIR [--events=FILE [--follow]] [--queue=N]\n"
      "           [--max-staged=N] [--schedule=bsp|async] [--verify]\n"
      "           continuous ingestion: replays an append-only event stream\n"
      "           (default: the dataset's own instance diffs) through the\n"
      "           bounded seal queue while ALGO runs incrementally over\n"
      "           timesteps as they seal; prints the stream summary\n"
      "           (--verify also runs the cold batch reference and exits 1\n"
      "            unless the digests match)\n"
      "  analyze  RUN.json [--attrib] | --timeline=TIMELINE.json\n"
      "           per-partition time split with the measured wait blame,\n"
      "           and the dominant straggler;\n"
      "           --attrib: render the cost-attribution report (per-subgraph\n"
      "           table, hot vertices, per-timestep skew, partition advisor)\n"
      "  top      ALGO DIR [--schedule=bsp|async] [--refresh-ms=N]\n"
      "           runs ALGO and redraws a live progress view from a fresh\n"
      "           metrics capture every N ms (default 200) until the job\n"
      "           completes\n"
      "analysis commands also take:\n"
      "  --trace=PATH   write a Perfetto/Chrome trace of the run\n"
      "  --json=PATH    write machine-readable run stats (JSON)\n"
      "  --sample-ms=N  telemetry sampling cadence (default 10) for\n"
      "                 --timeline=, --prom= and --prom-port=; alone, no effect\n"
      "  --timeline=PATH  write the sampled timeline JSON at exit\n"
      "                   (for `analyze`, the flag names a file to read)\n"
      "  --prom=PATH    rewrite a Prometheus text exposition during the run\n"
      "  --prom-port=N  serve the exposition over HTTP (0 = ephemeral port)\n"
      "  --checkpoint=DIR  checkpoint each timestep to DIR and recover from\n"
      "                    injected worker faults\n"
      "  --schedule=bsp|async  superstep scheduling: global barrier (bsp,\n"
      "                        default) or dependency-driven waves with\n"
      "                        work stealing (async; identical output)\n"
      "  --profile[=TOPK]   arm the cost-attribution profiler (per-subgraph\n"
      "                     accounting + top-K heavy-hitter sketches;\n"
      "                     TOPK in [1, 1048576], default 64)\n"
      "  --profile-sample=N time every Nth vertex in the vertex-centric\n"
      "                     engines (N >= 1, default 8; implies --profile)\n"
      "all commands take:\n"
      "  --log-level=debug|info|warn|error (overrides TSG_LOG_LEVEL)\n"
      "  --inject=PLAN  arm the fault injector, e.g.\n"
      "                 --inject=kill@compute:p1:t2 or drop@deliver:t1\n"
      "                 (sites: compute|barrier|deliver|slice-load;\n"
      "                  actions: kill|drop|delay|fail)\n"
      "  --inject-seed=S  delay-jitter seed for the plan (default 42)\n"
      "environment: TSG_LOG_LEVEL=debug|info|warn|error\n"
      "             TSG_INJECT / TSG_INJECT_SEED (same as --inject flags)\n",
      stderr);
  return 2;
}

int fail(const Status& status) {
  std::fprintf(stderr, "tsgcli: %s\n", status.toString().c_str());
  return 1;
}

// A malformed flag (invalidArgument) is a usage error and exits 2; any
// other failure exits 1.
int failArgs(const Status& status) {
  fail(status);
  return status.code() == ErrorCode::kInvalidArgument ? 2 : 1;
}

// Opens the dataset named by the first positional argument.
Result<GofsDataset> openFrom(const Args& args) {
  if (args.positional.empty()) {
    return Status::invalidArgument("missing dataset directory argument");
  }
  return GofsDataset::open(args.positional[0]);
}

// Set from --json=PATH before the command runs; printRunFooter exports the
// run's stats there (every analysis command funnels through it).
std::string g_json_path;
// Set when an output the command was asked to write (--json=, --trace=,
// --timeline=, --prom=) could not be written; main then exits 1.
bool g_output_failed = false;

// Parses --schedule=bsp|async into *out; returns false (after printing the
// diagnostic) on an unknown value.
bool parseSchedule(const Args& args, Schedule* out) {
  const std::string value = args.get("schedule", "bsp");
  if (value == "bsp") {
    *out = Schedule::kBsp;
    return true;
  }
  if (value == "async") {
    *out = Schedule::kAsync;
    return true;
  }
  std::fprintf(stderr, "tsgcli: unknown --schedule=%s (expected bsp|async)\n",
               value.c_str());
  return false;
}

// Sums a counter across partitions in a run's metrics delta.
std::int64_t metricTotal(const RunStats& stats, const std::string& name) {
  std::int64_t total = 0;
  for (const auto& point : stats.metrics()) {
    if (point.name == name) {
      total += point.value;
    }
  }
  return total;
}

// One line per fault-tolerance event, printed only when something happened
// so fault-free runs stay byte-identical to before.
void printFaultSummary(const RunStats& stats) {
  const std::int64_t recoveries = metricTotal(stats, "engine.recoveries");
  const std::int64_t checkpoints = metricTotal(stats, "engine.checkpoints");
  const std::int64_t delays = metricTotal(stats, "fault.delivery_delays");
  const std::int64_t retries = metricTotal(stats, "gofs.load_retries");
  if (recoveries > 0 || delays > 0 || retries > 0) {
    std::printf(
        "fault tolerance: %lld recoveries, %lld checkpoints, %lld delivery "
        "delays, %lld slice-load retries\n",
        static_cast<long long>(recoveries),
        static_cast<long long>(checkpoints), static_cast<long long>(delays),
        static_cast<long long>(retries));
  }
}

// Short attribution footer for run commands: the heaviest subgraphs by
// attributed compute. The per-timestep skew and the placement advice are
// in the full report, `analyze RUN.json --attrib`.
void printAttributionSummary(const RunStats& stats) {
  if (!stats.hasAttribution() || stats.attribution().empty()) {
    return;
  }
  const AttributionTable& attrib = stats.attribution();
  const auto totals = attrib.subgraphTotals();
  std::int64_t total_ns = 0;
  for (const auto& c : totals) {
    total_ns += c.compute_ns;
  }
  std::vector<std::size_t> order(totals.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  const std::size_t keep = std::min<std::size_t>(5, order.size());
  std::partial_sort(order.begin(), order.begin() + keep, order.end(),
                    [&](std::size_t a, std::size_t b) {
                      return totals[a].compute_ns > totals[b].compute_ns;
                    });
  TextTable table({"subgraph", "partition", "compute ms", "share", "msgs out"});
  for (std::size_t i = 0; i < keep; ++i) {
    const std::size_t sg = order[i];
    const double share =
        total_ns > 0 ? 100.0 * static_cast<double>(totals[sg].compute_ns) /
                           static_cast<double>(total_ns)
                     : 0.0;
    table.addRow({std::to_string(sg),
                  std::to_string(attrib.subgraphs[sg].partition),
                  TextTable::fmtDouble(
                      static_cast<double>(totals[sg].compute_ns) / 1e6, 3),
                  TextTable::fmtDouble(share, 1) + "%",
                  TextTable::fmtCount(totals[sg].msgs_out)});
  }
  std::printf("== cost attribution: top subgraphs by compute ==\n%s",
              table.render().c_str());
}

void writeJsonStats(const RunStats& stats, const std::string& label) {
  if (g_json_path.empty()) {
    return;
  }
  if (writeTextFile(g_json_path, runStatsToJson(stats, label))) {
    std::printf("wrote run stats: %s\n", g_json_path.c_str());
  } else {
    std::fprintf(stderr, "tsgcli: cannot write %s\n", g_json_path.c_str());
    g_output_failed = true;
  }
}

void printRunFooter(const RunStats& stats) {
  printFaultSummary(stats);
  printAttributionSummary(stats);
  std::fputs(summarizeRun(stats, "run").c_str(), stdout);
  std::fputc('\n', stdout);
  std::fputs(renderUtilization(stats, "per-partition split").c_str(), stdout);
  writeJsonStats(stats, "run");
}

int cmdGenerate(const Args& args) {
  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::fputs("tsgcli generate: --out=DIR is required\n", stderr);
    return 2;
  }
  const std::string kind = args.get("kind", "road");
  const std::string workload =
      args.get("workload", kind == "road" ? "road" : "tweet");
  const auto vertices =
      static_cast<std::uint32_t>(args.getInt("vertices", 10000, 1,
                                             kUint32Max));
  const auto timesteps =
      static_cast<std::uint32_t>(args.getInt("timesteps", 50, 1, kInt32Max));
  const auto partitions = static_cast<std::uint32_t>(
      args.getInt("partitions", 4, 1, kMaxPartitions));
  const auto seed =
      static_cast<std::uint64_t>(args.getInt("seed", 1, 0, kInt64Max));
  const double closures = args.getDouble("closures", 0.0);
  const double hit = args.getDouble("hit", 0.1);
  const double background = args.getDouble("background", 0.01);
  const auto packing =
      static_cast<std::uint32_t>(args.getInt("packing", 10, 1, kUint32Max));
  if (!args.flagError().isOk()) {
    return failArgs(args.flagError());
  }

  AttributeSchema vertex_schema;
  AttributeSchema edge_schema;
  if (workload == "road") {
    edge_schema =
        closures > 0.0 ? roadEdgeSchemaWithClosures() : roadEdgeSchema();
  } else {
    vertex_schema = tweetVertexSchema();
  }

  GraphTemplatePtr tmpl;
  if (kind == "road") {
    RoadNetworkOptions options;
    options.width = options.height = static_cast<std::uint32_t>(
        std::max(2.0, std::sqrt(static_cast<double>(vertices))));
    options.seed = seed;
    auto built = makeRoadNetwork(options, std::move(vertex_schema),
                                 std::move(edge_schema));
    if (!built.isOk()) {
      return fail(built.status());
    }
    tmpl = std::make_shared<GraphTemplate>(std::move(built).value());
  } else if (kind == "social") {
    PreferentialAttachmentOptions options;
    options.num_vertices = vertices;
    options.seed = seed;
    auto built = makePreferentialAttachment(options, std::move(vertex_schema),
                                            std::move(edge_schema));
    if (!built.isOk()) {
      return fail(built.status());
    }
    tmpl = std::make_shared<GraphTemplate>(std::move(built).value());
  } else {
    std::fprintf(stderr, "tsgcli generate: unknown --kind=%s\n", kind.c_str());
    return 2;
  }

  Result<TimeSeriesCollection> collection =
      Status::internal("unset");
  if (workload == "road") {
    RoadInstanceOptions options;
    options.num_timesteps = timesteps;
    options.seed = seed + 1;
    options.closure_probability = closures;
    collection = makeRoadInstances(tmpl, options);
  } else {
    SirTweetOptions options;
    options.num_timesteps = timesteps;
    options.seed = seed + 1;
    options.hit_probability = hit;
    options.background_probability = background;
    collection = makeSirTweetInstances(tmpl, options);
  }
  if (!collection.isOk()) {
    return fail(collection.status());
  }

  const BfsPartitioner partitioner(seed + 2);
  auto pg = PartitionedGraph::build(tmpl, partitioner.assign(*tmpl, partitions),
                                    partitions);
  if (!pg.isOk()) {
    return fail(pg.status());
  }

  GofsOptions gofs;
  gofs.temporal_packing = packing;
  Stopwatch sw;
  const Status status =
      writeGofsDataset(out, kind, pg.value(), collection.value(), gofs);
  if (!status.isOk()) {
    return fail(status);
  }
  std::printf(
      "wrote %s: %zu vertices, %zu edges, %u instances, %u partitions "
      "(%.1f s)\n",
      out.c_str(), tmpl->numVertices(), tmpl->numEdges(), timesteps,
      partitions, sw.elapsedSec());
  return 0;
}

int cmdInspect(const Args& args) {
  auto ds = openFrom(args);
  if (!ds.isOk()) {
    return fail(ds.status());
  }
  const auto& manifest = ds.value().manifest();
  const auto& pg = ds.value().partitionedGraph();
  const auto& tmpl = pg.graphTemplate();

  std::printf("dataset:    %s\n", manifest.name.c_str());
  std::printf("instances:  %u (t0=%lld, delta=%lld)\n", manifest.num_instances,
              static_cast<long long>(manifest.t0),
              static_cast<long long>(manifest.delta));
  std::printf("packing:    %u temporal\n", manifest.options.temporal_packing);
  std::printf("topology:   %zu vertices, %zu directed edges, %s\n",
              tmpl.numVertices(), tmpl.numEdges(),
              tmpl.directed() ? "directed" : "undirected pairs");
  auto schemaLine = [](const AttributeSchema& schema) {
    std::string line;
    for (const auto& def : schema.defs()) {
      if (!line.empty()) {
        line += ", ";
      }
      line += def.name + ":" + std::string(attrTypeName(def.type));
    }
    return line.empty() ? std::string("(none)") : line;
  };
  std::printf("vertex attrs: %s\n", schemaLine(tmpl.vertexSchema()).c_str());
  std::printf("edge attrs:   %s\n", schemaLine(tmpl.edgeSchema()).c_str());

  const auto metrics =
      evaluatePartition(tmpl, pg.assignment(), pg.numPartitions());
  TextTable table({"partition", "vertices", "edges", "subgraphs",
                   "largest sg"});
  for (PartitionId p = 0; p < pg.numPartitions(); ++p) {
    const auto& part = pg.partition(p);
    table.addRow({std::to_string(p), TextTable::fmtCount(part.numVertices()),
                  TextTable::fmtCount(part.numEdges()),
                  std::to_string(part.subgraphs.size()),
                  part.subgraphs.empty()
                      ? "-"
                      : TextTable::fmtCount(
                            part.subgraphs.front().numVertices())});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("edge cut:   %s (%llu of %llu)\n",
              TextTable::fmtPercent(metrics.cut_fraction, 3).c_str(),
              static_cast<unsigned long long>(metrics.cut_edges),
              static_cast<unsigned long long>(metrics.num_edges));
  const auto storage = ds.value().storageStats();
  if (storage.isOk()) {
    std::printf("on disk:    %llu slice files, %.1f MB\n",
                static_cast<unsigned long long>(storage.value().slice_files),
                static_cast<double>(storage.value().slice_bytes) / 1e6);
  }
  return 0;
}

// What every algorithm command shares: the registry entry, the dataset and
// the request built from the command line (--schedule, --checkpoint=DIR and
// the per-algorithm flags, which the entry reads itself).
struct AlgoCommand {
  const AlgorithmEntry* entry = nullptr;
  std::optional<GofsDataset> ds;
  std::unique_ptr<CheckpointStore> store;
  AlgorithmRequest request;

  [[nodiscard]] const PartitionedGraph& pg() const {
    return ds->partitionedGraph();
  }

  // One run reading every timestep straight from the dataset.
  [[nodiscard]] Result<AlgorithmRun> runBatch(
      const AlgorithmRequest& req) const {
    auto provider = ds->makeProvider();
    return runAlgorithm(*entry, pg(), *provider, req);
  }

  // One run over the streaming pipeline, fed from `source`.
  [[nodiscard]] Result<AlgorithmRun> runStreamed(
      stream::StreamPipeline& pipeline, stream::EventSource& source,
      AlgorithmRequest req) const {
    Result<AlgorithmRun> run = Status::internal("streamed run did not start");
    const Status ingest = pipeline.run(
        source, [&](stream::StreamingInstanceProvider& provider) {
          req.stream = &provider;
          run = runAlgorithm(*entry, pg(), provider, req);
        });
    TSG_RETURN_IF_ERROR(ingest);
    return run;
  }

  [[nodiscard]] stream::StreamPipeline makePipeline(
      std::size_t queue_capacity, std::size_t max_staged_cells = 0) const {
    const auto batch = ds->makeProvider();
    return stream::StreamPipeline(pg(), batch->numInstances(), batch->t0(),
                                  batch->delta(), queue_capacity,
                                  max_staged_cells);
  }
};

// Resolves ALGO and DIR and builds the request. Returns the exit code
// (after printing the diagnostic) of an unknown algorithm, an unreadable
// dataset or a bad flag; 0 when `out` is ready.
int prepare(const Args& args, const std::string& algo, const std::string& dir,
            AlgoCommand* out) {
  out->entry = findAlgorithm(algo);
  if (out->entry == nullptr) {
    std::string names;
    for (const AlgorithmEntry& entry : algorithms()) {
      names += (names.empty() ? "" : "|") + std::string(entry.name);
    }
    std::fprintf(stderr, "tsgcli: unknown algorithm '%s' (expected %s)\n",
                 algo.c_str(), names.c_str());
    return 2;
  }
  if (!parseSchedule(args, &out->request.schedule)) {
    return 2;
  }
  auto ds = GofsDataset::open(dir);
  if (!ds.isOk()) {
    return fail(ds.status());
  }
  out->ds.emplace(std::move(ds).value());
  const std::string checkpoint_dir = args.get("checkpoint", "");
  if (!checkpoint_dir.empty()) {
    out->store = std::make_unique<FileCheckpointStore>(checkpoint_dir);
  }
  out->request.checkpoint_store = out->store.get();
  out->request.params = args.flags;
  return 0;
}

// `tsgcli ALGO DIR [flags]`: one batch run, its result summary, any output
// lines it was asked for, and the run footer.
int cmdRun(const std::string& algo, const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "tsgcli %s: missing dataset directory argument\n",
                 algo.c_str());
    return 2;
  }
  AlgoCommand cmd;
  if (const int rc = prepare(args, algo, args.positional[0], &cmd); rc != 0) {
    return rc;
  }
  const auto run = cmd.runBatch(cmd.request);
  if (!run.isOk()) {
    return failArgs(run.status());
  }
  std::fputs(run.value().summary.c_str(), stdout);
  for (const auto& line : run.value().outputs) {
    std::puts(line.c_str());
  }
  printRunFooter(run.value().stats);
  return 0;
}

// Loads a runStatsToJson document from disk (as written by --json=PATH).
Result<LoadedRunStats> loadRunStatsFile(const std::string& path) {
  auto bytes = readFileBytes(path);
  if (!bytes.isOk()) {
    return bytes.status();
  }
  auto loaded = runStatsFromJson(std::string_view(
      reinterpret_cast<const char*>(bytes.value().data()),
      bytes.value().size()));
  if (!loaded.isOk()) {
    return Status(loaded.status().code(),
                  path + ": " + loaded.status().message());
  }
  return loaded;
}

// Superstep/batch histogram quantiles for the analyze summary. Duration
// series (.._ns) render as milliseconds; size series as raw counts.
std::string renderHistogramQuantiles(const RunStats& stats) {
  if (stats.histograms().empty()) {
    return "";
  }
  const auto fmt = [](const std::string& name, std::uint64_t v) {
    if (name.size() > 3 && name.compare(name.size() - 3, 3, "_ns") == 0) {
      return TextTable::fmtDouble(static_cast<double>(v) / 1e6, 3);
    }
    return TextTable::fmtCount(v);
  };
  TextTable table({"histogram", "count", "p50", "p95", "p99", "max"});
  for (const auto& h : stats.histograms()) {
    if (h.count == 0) {
      continue;
    }
    table.addRow({h.name, TextTable::fmtCount(h.count),
                  fmt(h.name, h.quantile(0.50)), fmt(h.name, h.quantile(0.95)),
                  fmt(h.name, h.quantile(0.99)), fmt(h.name, h.max)});
  }
  return "== histogram quantiles (ms / count) ==\n" + table.render();
}

const MetricsRegistry::Point* findPoint(
    const MetricsRegistry::Snapshot& points, std::string_view name,
    std::int32_t partition) {
  for (const auto& p : points) {
    if (p.partition == partition && p.name == name) {
      return &p;
    }
  }
  return nullptr;
}

// The full --attrib report: per-subgraph cost table, each partition's
// residency, per-timestep skew series, heavy-hitter vertices, and the
// partition-quality advisor cross-referenced with the run's measured wait
// blame.
void printAttributionReport(const RunStats& stats) {
  const AttributionTable& attrib = stats.attribution();
  const auto totals = attrib.subgraphTotals();
  std::int64_t total_ns = 0;
  for (const auto& c : totals) {
    total_ns += c.compute_ns;
  }

  std::vector<std::size_t> order(totals.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return totals[a].compute_ns > totals[b].compute_ns;
  });
  const std::size_t keep = std::min<std::size_t>(15, order.size());
  TextTable table({"subgraph", "partition", "vertices", "compute ms", "share",
                   "computes", "msgs out", "msgs in", "KB out", "KB in"});
  for (std::size_t i = 0; i < keep; ++i) {
    const std::size_t sg = order[i];
    const double share =
        total_ns > 0 ? 100.0 * static_cast<double>(totals[sg].compute_ns) /
                           static_cast<double>(total_ns)
                     : 0.0;
    table.addRow(
        {std::to_string(sg), std::to_string(attrib.subgraphs[sg].partition),
         TextTable::fmtCount(attrib.subgraphs[sg].vertices),
         TextTable::fmtDouble(
             static_cast<double>(totals[sg].compute_ns) / 1e6, 3),
         TextTable::fmtDouble(share, 1) + "%",
         TextTable::fmtCount(totals[sg].computes),
         TextTable::fmtCount(totals[sg].msgs_out),
         TextTable::fmtCount(attrib.msgs_in[sg]),
         TextTable::fmtDouble(static_cast<double>(totals[sg].bytes_out) / 1e3,
                              1),
         TextTable::fmtDouble(static_cast<double>(attrib.bytes_in[sg]) / 1e3,
                              1)});
  }
  std::printf("== cost attribution: subgraphs by compute (top %zu of %zu) ==\n%s",
              keep, totals.size(), table.render().c_str());

  // Residency is a partition's level: its gofs.resident_bytes gauge in the
  // run's metrics (absent when the run loaded nothing from GoFS).
  TextTable resident({"partition", "resident KB"});
  bool any_resident = false;
  for (PartitionId p = 0; p < attrib.num_partitions; ++p) {
    if (const auto* point = findPoint(stats.metrics(), "gofs.resident_bytes",
                                      static_cast<std::int32_t>(p))) {
      resident.addRow(
          {std::to_string(p),
           TextTable::fmtDouble(static_cast<double>(point->value) / 1e3, 1)});
      any_resident = true;
    }
  }
  if (any_resident) {
    std::printf("== resident attribute bytes per partition ==\n%s",
                resident.render().c_str());
  }

  // Per-timestep compute + skew (Gini over the row's subgraph compute).
  TextTable skew({"timestep", "compute ms", "gini"});
  for (std::int32_t row = 0; row < attrib.num_rows; ++row) {
    std::int64_t row_ns = 0;
    for (const auto& cell : attrib.rows[static_cast<std::size_t>(row)]) {
      row_ns += cell.compute_ns;
    }
    if (row_ns == 0) {
      continue;
    }
    const bool merge_row = row == attrib.num_rows - 1;
    skew.addRow({merge_row ? "merge"
                           : std::to_string(attrib.first_timestep + row),
                 TextTable::fmtDouble(static_cast<double>(row_ns) / 1e6, 3),
                 TextTable::fmtDouble(attrib.rowGini(row), 3)});
  }
  std::printf("== per-timestep compute skew ==\n%s", skew.render().c_str());

  const auto hotTable = [](const std::vector<HotVertex>& hot,
                           const char* what) {
    if (hot.empty()) {
      return;
    }
    const std::size_t n = std::min<std::size_t>(10, hot.size());
    // Any vertex the sketch does not hold weighs at most its largest error,
    // so an entry stands out only if its lower bound (weight - error) does.
    std::uint64_t max_error = 0;
    for (const HotVertex& h : hot) {
      max_error = std::max(max_error, h.error);
    }
    if (std::none_of(hot.begin(), hot.begin() + n, [&](const HotVertex& h) {
          return h.weight > h.error && h.weight - h.error > max_error;
        })) {
      std::printf("== hot vertices: %s: the sketch separated no vertex (no "
                  "entry's weight-error exceeds the largest error, %s) ==\n",
                  what, TextTable::fmtCount(max_error).c_str());
      return;
    }
    TextTable t({"vertex", "partition", "weight<=", "error"});
    for (std::size_t i = 0; i < n; ++i) {
      t.addRow({std::to_string(hot[i].vertex),
                std::to_string(hot[i].partition),
                TextTable::fmtCount(hot[i].weight),
                TextTable::fmtCount(hot[i].error)});
    }
    std::printf("== hot vertices: %s (space-saving top-k; true weight in "
                "[weight-error, weight]) ==\n%s",
                what, t.render().c_str());
  };
  hotTable(attrib.hot_compute, "compute ns");
  hotTable(attrib.hot_fanout, "message fan-out");

  const AdvisorReport advice =
      advisePartitioning(attrib, stats.partitionUtilization());
  std::fputs(renderAdvisorReport(advice).c_str(), stdout);
}

int cmdAnalyze(const Args& args) {
  // For analyze, --timeline= names a file to READ (written earlier by a run
  // command); render the Fig. 7-style utilization/progress curves from it.
  const std::string timeline_path = args.get("timeline", "");
  if (!timeline_path.empty()) {
    auto bytes = readFileBytes(timeline_path);
    if (!bytes.isOk()) {
      return fail(bytes.status());
    }
    auto timeline = timelineFromJson(std::string_view(
        reinterpret_cast<const char*>(bytes.value().data()),
        bytes.value().size()));
    if (!timeline.isOk()) {
      return fail(Status(timeline.status().code(),
                         timeline_path + ": " + timeline.status().message()));
    }
    std::fputs(renderTimelineCurves(timeline.value()).c_str(), stdout);
    if (args.positional.empty()) {
      return 0;
    }
  }
  if (args.positional.empty()) {
    std::fputs("tsgcli analyze: missing RUN.json argument\n", stderr);
    return 2;
  }
  auto loaded = loadRunStatsFile(args.positional[0]);
  if (!loaded.isOk()) {
    // An unreadable or malformed RUN.json is a bad argument.
    fail(loaded.status());
    return 2;
  }
  const auto& run = loaded.value();
  const std::string label =
      run.label.empty() ? args.positional[0] : run.label;
  printFaultSummary(run.stats);
  std::fputs(renderUtilization(run.stats, label).c_str(), stdout);
  std::fputs(renderWaitBlame(run.stats, label).c_str(), stdout);
  std::fputs(renderHistogramQuantiles(run.stats).c_str(), stdout);
  if (args.has("attrib")) {
    if (!run.attribution_status.isOk()) {
      fail(Status(run.attribution_status.code(),
                  args.positional[0] + ": " +
                      run.attribution_status.message()));
      return 2;
    }
    if (!run.stats.hasAttribution() || run.stats.attribution().empty()) {
      std::fputs(
          "tsgcli analyze: no attribution block in this run (record one "
          "with --profile= on the run command)\n",
          stderr);
      return 2;
    }
    printAttributionReport(run.stats);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// check — BSP protocol checking + determinism harness over an algorithm.
// ---------------------------------------------------------------------------

// Reassembles the dataset's instances into full-graph form one at a time
// and diffs each against its predecessor into the append-only event stream
// a live ingestor would have consumed. Two instances are resident at once.
std::vector<stream::GraphEvent> datasetEvents(const GofsDataset& ds) {
  const auto& pg = ds.partitionedGraph();
  auto provider = ds.makeProvider();
  std::vector<stream::GraphEvent> events;
  GraphInstance prev(pg.graphTemplate(), 0, provider->t0());
  for (Timestep t = 0; t < static_cast<Timestep>(provider->numInstances());
       ++t) {
    GraphInstance cur =
        stream::assembleInstance(pg, pg.graphTemplate(), *provider, t);
    stream::appendInstanceDiff(prev, cur, events);
    prev = std::move(cur);
  }
  return events;
}

int cmdCheck(const Args& args) {
  if (args.positional.size() < 2) {
    std::fputs("tsgcli check: need <algo> and <dataset dir> arguments\n",
               stderr);
    return 2;
  }
  const std::string& algo = args.positional[0];
  AlgoCommand cmd;
  if (const int rc = prepare(args, algo, args.positional[1], &cmd); rc != 0) {
    return rc;
  }
  check::DeterminismOptions options;
  options.runs =
      static_cast<std::int32_t>(args.getInt("runs", 3, 1, kInt32Max));
  options.seed =
      static_cast<std::uint64_t>(args.getInt("seed", 1, 0, kInt64Max));
  if (!args.flagError().isOk()) {
    return failArgs(args.flagError());
  }
  // --stream: every harness run replays the dataset's event stream through
  // the ingest pipeline instead of reading the dataset directly. The
  // events are diffed once up front so all runs see identical input. An
  // algorithm without a timestep loop has nothing to stream and runs
  // batch, so harness sweeps can pass a uniform --stream.
  const bool streamed = args.has("stream");
  std::vector<stream::GraphEvent> events;
  if (streamed) {
    events = datasetEvents(*cmd.ds);
  }

  // Protocol checking is on for every harness run; a violation prints its
  // diagnostic (rule, partition, superstep, flow) and aborts the process.
  check::setEnabled(true);

  Status failed = Status::ok();
  RunStats last_stats;
  const auto report = check::checkDeterminism(
      options, [&](std::int32_t) -> std::string {
        Result<AlgorithmRun> run = Status::internal("unset");
        if (streamed && cmd.entry->has_timestep_loop) {
          auto pipeline = cmd.makePipeline(/*queue_capacity=*/4);
          stream::MemoryEventSource source;
          source.push(events);
          source.close();
          run = cmd.runStreamed(pipeline, source, cmd.request);
        } else {
          run = cmd.runBatch(cmd.request);
        }
        if (!run.isOk()) {
          failed = run.status();
          return "";
        }
        last_stats = std::move(run.value().stats);
        return std::move(run.value().digest);
      });
  if (!failed.isOk()) {
    return failArgs(failed);
  }
  // --json= persists the last harness run's stats (with --profile, the
  // vertex engines' attribution tables reach `analyze` this way too).
  writeJsonStats(last_stats, "check " + algo);
  std::fputs(
      check::renderDeterminismReport(report, algo + " on " +
                                                 args.positional[1])
          .c_str(),
      stdout);
  if (!report.deterministic) {
    return 1;
  }
  // The async schedule's contract is digest-identity with BSP, and the
  // streamed pipeline's contract is digest-identity with the cold batch
  // run: every harness run must reproduce the unperturbed batch BSP
  // reference exactly. The reference runs after the harness, so a one-shot
  // injected fault lands in a harness run under either schedule.
  if (cmd.request.schedule == Schedule::kBsp && !streamed) {
    return 0;
  }
  AlgorithmRequest reference_request = cmd.request;
  reference_request.schedule = Schedule::kBsp;
  const auto reference = cmd.runBatch(reference_request);
  if (!reference.isOk()) {
    return failArgs(reference.status());
  }
  const std::string& bsp_reference = reference.value().digest;
  const char* variant =
      streamed ? (cmd.request.schedule == Schedule::kAsync ? "streamed async"
                                                           : "streamed")
               : "async";
  if (report.runs.front().digest != bsp_reference) {
    std::printf("%s run DIVERGES from the batch BSP reference:\n"
                "  batch bsp  %s\n  %-10s %s\n",
                variant, bsp_reference.c_str(), variant,
                report.runs.front().digest.c_str());
    return 1;
  }
  std::printf("%s digest matches the batch BSP reference (%s)\n", variant,
              bsp_reference.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// stream — the continuous-ingestion front door: feed an append-only event
// stream through the ingestor and run ALGO over timesteps as they seal.
// ---------------------------------------------------------------------------

int cmdStream(const Args& args) {
  if (args.positional.size() < 2) {
    std::fputs("tsgcli stream: need <algo> and <dataset dir> arguments\n",
               stderr);
    return 2;
  }
  const std::string& algo = args.positional[0];
  AlgoCommand cmd;
  if (const int rc = prepare(args, algo, args.positional[1], &cmd); rc != 0) {
    return rc;
  }
  if (!cmd.entry->has_timestep_loop) {
    std::fprintf(stderr, "tsgcli stream: %s has no timestep loop to stream\n",
                 algo.c_str());
    return 2;
  }
  const auto queue_cap =
      static_cast<std::size_t>(args.getInt("queue", 4, 1, kInt64Max));
  const auto max_staged =
      static_cast<std::size_t>(args.getInt("max-staged", 0, 0, kInt64Max));
  if (!args.flagError().isOk()) {
    return failArgs(args.flagError());
  }
  auto pipeline = cmd.makePipeline(queue_cap, max_staged);

  // Event source: --events=FILE replays a TSEV frame file (--follow keeps
  // polling as a writer appends — a live tail). Without --events, the
  // dataset's own instance diffs replay through a memory source, which
  // makes `stream ALGO DIR --verify` a self-contained equivalence check.
  std::unique_ptr<stream::EventSource> source;
  const std::string events_path = args.get("events", "");
  if (!events_path.empty()) {
    source = std::make_unique<stream::FileTailSource>(events_path,
                                                      args.has("follow"));
  } else {
    auto mem = std::make_unique<stream::MemoryEventSource>();
    mem->push(datasetEvents(*cmd.ds));
    mem->close();
    source = std::move(mem);
  }

  const auto skipped_before =
      MetricsRegistry::global()
          .counter("engine.subgraphs_skipped_incremental")
          .value();
  Stopwatch sw;
  const auto run = cmd.runStreamed(pipeline, *source, cmd.request);
  if (!run.isOk()) {
    return failArgs(run.status());
  }
  const std::uint64_t skipped =
      MetricsRegistry::global()
          .counter("engine.subgraphs_skipped_incremental")
          .value() -
      skipped_before;
  const std::string& digest = run.value().digest;
  const auto& ingestor = pipeline.ingestor();
  const auto& queue = pipeline.queue();

  std::printf("streamed %s over %s: %zu/%zu timesteps sealed (%.1f s)\n",
              algo.c_str(), args.positional[1].c_str(),
              pipeline.provider().sealedCount(),
              pipeline.provider().numInstances(), sw.elapsedSec());
  // Machine-parseable block — ci/check_stream.py consumes it verbatim.
  std::printf("stream summary:\n");
  std::printf("  events_ingested: %llu\n",
              static_cast<unsigned long long>(ingestor.eventsIngested()));
  std::printf("  late_events: %llu\n",
              static_cast<unsigned long long>(ingestor.lateEvents()));
  std::printf("  sealed_timesteps: %llu\n",
              static_cast<unsigned long long>(ingestor.sealedTimesteps()));
  std::printf("  seal_queue_max_depth: %zu\n", queue.maxDepth());
  std::printf("  seal_queue_capacity: %zu\n", queue.capacity());
  std::printf("  subgraphs_skipped_incremental: %llu\n",
              static_cast<unsigned long long>(skipped));
  std::printf("  digest: %s\n", digest.c_str());
  // Read before --verify's batch run, which would otherwise set the peak.
  std::printf("  peak_rss_mb: %.1f\n",
              static_cast<double>(readPeakRssBytes()) / (1024.0 * 1024.0));

  int rc = 0;
  if (args.has("verify")) {
    AlgorithmRequest reference_request = cmd.request;
    reference_request.schedule = Schedule::kBsp;
    const auto reference = cmd.runBatch(reference_request);
    if (!reference.isOk()) {
      return failArgs(reference.status());
    }
    const bool match = reference.value().digest == digest;
    std::printf("  batch_digest: %s\n", reference.value().digest.c_str());
    std::printf("  digest_match: %s\n", match ? "yes" : "no");
    if (!match) {
      std::fputs("tsgcli stream: streamed digest DIVERGES from the cold "
                 "batch run\n",
                 stderr);
      rc = 1;
    }
  }
  printRunFooter(run.value().stats);
  return rc;
}

// ---------------------------------------------------------------------------
// top — live terminal view of a running job: one registry capture per
// redraw.
// ---------------------------------------------------------------------------

std::int64_t pointTotal(const MetricsRegistry::Snapshot& points,
                        std::string_view name) {
  std::int64_t total = 0;
  for (const auto& p : points) {
    if (p.name == name) {
      total += p.value;
    }
  }
  return total;
}

// Per-second rate of a counter between two samples.
double rateOf(const TelemetrySample& now, const TelemetrySample& prev,
              std::string_view name) {
  const double dt_s = static_cast<double>(now.ts_ns - prev.ts_ns) / 1e9;
  if (dt_s <= 0.0) {
    return 0.0;
  }
  return static_cast<double>(pointTotal(now.points, name) -
                             pointTotal(prev.points, name)) /
         dt_s;
}

std::string renderTopFrame(const std::string& algo,
                           std::uint32_t num_partitions,
                           const TelemetrySample& now,
                           const TelemetrySample* prev, double elapsed_s) {
  std::string out = "tsgcli top — " + algo + "   elapsed " +
                    TextTable::fmtDouble(elapsed_s, 1) + " s";
  if (now.proc.valid) {
    out += "   rss " +
           TextTable::fmtDouble(
               static_cast<double>(now.proc.rss_bytes) / (1024.0 * 1024.0),
               1) +
           " MB   threads " + std::to_string(now.proc.threads);
  }
  out += "\n";
  out += "timestep " +
         std::to_string(pointTotal(now.points, "engine.current_timestep")) +
         "   superstep " +
         std::to_string(pointTotal(now.points, "engine.current_superstep")) +
         "   ready " +
         std::to_string(pointTotal(now.points, "cluster.ready_queue_depth")) +
         "   bus backlog " +
         std::to_string(pointTotal(now.points, "bus.inflight_messages"));
  if (prev != nullptr) {
    out += "   waves/s " + TextTable::fmtDouble(
                               rateOf(now, *prev, "cluster.waves"), 0) +
           "   steals/s " + TextTable::fmtDouble(
                                rateOf(now, *prev, "cluster.steals"), 0) +
           "   skips/s " +
           TextTable::fmtDouble(rateOf(now, *prev, "cluster.barrier_skips"),
                                0) +
           "   msg/s " +
           TextTable::fmtDouble(rateOf(now, *prev, "bus.messages_delivered"),
                                0);
  }
  out += "\n";
  TextTable table({"partition", "subgraphs", "deque", "msgs sent",
                   "resident MB"});
  for (std::uint32_t p = 0; p < num_partitions; ++p) {
    const auto part = static_cast<std::int32_t>(p);
    const auto* computed =
        findPoint(now.points, "engine.subgraphs_computed", part);
    const auto* deque =
        findPoint(now.points, "cluster.worker_queue_depth", part);
    const auto* sent = findPoint(now.points, "engine.messages_sent", part);
    const auto* resident = findPoint(now.points, "gofs.resident_bytes", part);
    table.addRow({std::to_string(p),
                  computed != nullptr
                      ? TextTable::fmtCount(
                            static_cast<std::uint64_t>(computed->value))
                      : "-",
                  deque != nullptr ? std::to_string(deque->value) : "-",
                  sent != nullptr
                      ? TextTable::fmtCount(
                            static_cast<std::uint64_t>(sent->value))
                      : "-",
                  resident != nullptr
                      ? TextTable::fmtDouble(
                            static_cast<double>(resident->value) / 1e6, 1)
                      : "-"});
  }
  out += table.render();
  return out;
}

int cmdTop(const Args& args) {
  if (args.positional.size() < 2) {
    std::fputs("tsgcli top: need <algo> and <dataset dir> arguments\n",
               stderr);
    return 2;
  }
  const std::string& algo = args.positional[0];
  AlgoCommand cmd;
  if (const int rc = prepare(args, algo, args.positional[1], &cmd); rc != 0) {
    return rc;
  }
  const auto num_partitions = cmd.pg().numPartitions();
  const auto refresh = std::chrono::milliseconds(
      args.getInt("refresh-ms", 200, 1, kInt32Max));
  if (!args.flagError().isOk()) {
    return failArgs(args.flagError());
  }

  // The job runs on its own thread so this one can keep redrawing. The
  // digest result is only read after join().
  Result<AlgorithmRun> run = Status::internal("job did not run");
  std::atomic<bool> done{false};
  std::thread job([&] {  // NOLINT(tsg-naked-thread)
    run = cmd.runBatch(cmd.request);
    done.store(true, std::memory_order_release);  // tsg:mo(release publishes the digest to the polling loop)
  });

#ifdef __linux__
  const bool tty = isatty(fileno(stdout)) != 0;
#else
  const bool tty = false;
#endif
  const std::int64_t t0 = steadyNowNs();
  TelemetrySample prev;
  bool has_prev = false;
  while (!done.load(std::memory_order_acquire)) {  // tsg:mo(acquire pairs with the worker's release of done)
    std::this_thread::sleep_for(refresh);
    TelemetrySample sample = TelemetrySampler::captureSample();
    const double elapsed_s = static_cast<double>(sample.ts_ns - t0) / 1e9;
    const std::string frame =
        renderTopFrame(algo, num_partitions, sample,
                       has_prev ? &prev : nullptr, elapsed_s);
    if (tty) {
      // Home + clear-to-end redraw keeps the view stable in a terminal.
      std::printf("\x1b[H\x1b[2J%s", frame.c_str());
      std::fflush(stdout);
    } else {
      std::printf("%s---\n", frame.c_str());
    }
    prev = std::move(sample);
    has_prev = true;
  }
  job.join();

  // Final frame, captured after the job ends so the end state is exact.
  const TelemetrySample last = TelemetrySampler::captureSample();
  const double elapsed_s = static_cast<double>(last.ts_ns - t0) / 1e9;
  std::printf("%s", renderTopFrame(algo, num_partitions, last,
                                   has_prev ? &prev : nullptr, elapsed_s)
                        .c_str());
  if (!run.isOk()) {
    return failArgs(run.status());
  }
  std::printf("done in %.1f s; digest %s\n", elapsed_s,
              run.value().digest.c_str());
  return 0;
}

}  // namespace

int dispatch(const std::string& command, const Args& args) {
  if (command == "generate") {
    return cmdGenerate(args);
  }
  if (command == "inspect") {
    return cmdInspect(args);
  }
  if (command == "check") {
    return cmdCheck(args);
  }
  if (command == "stream") {
    return cmdStream(args);
  }
  if (command == "analyze") {
    return cmdAnalyze(args);
  }
  if (command == "top") {
    return cmdTop(args);
  }
  if (findAlgorithm(command) != nullptr) {
    return cmdRun(command, args);
  }
  std::fprintf(stderr, "tsgcli: unknown command '%s'\n", command.c_str());
  return usage();
}

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  LogLevel level = initLogLevelFromEnv();
  const std::string command = argv[1];
  const Args args = parseArgs(argc, argv);
  // --log-level= wins over TSG_LOG_LEVEL.
  if (args.has("log-level")) {
    const std::string requested = args.get("log-level", "");
    if (parseLogLevel(requested, level)) {
      setLogLevel(level);
    } else {
      std::fprintf(stderr, "tsgcli: invalid --log-level=%s\n",
                   requested.c_str());
      return 2;
    }
  }
  TSG_LOG(Info) << "log level: " << logLevelName(level);
  // Fault injection: --inject= wins over TSG_INJECT.
  if (args.has("inject")) {
    auto plan = fault::parseFaultPlan(args.get("inject", ""));
    if (!plan.isOk()) {
      std::fprintf(stderr, "tsgcli: --inject: %s\n",
                   plan.status().toString().c_str());
      return 2;
    }
    fault::FaultInjector::global().arm(
        std::move(plan).value(),
        static_cast<std::uint64_t>(
            args.getInt("inject-seed", 42, 0, kInt64Max)));
  } else if (const Status armed = fault::armFromEnv(); !armed.isOk()) {
    return failArgs(armed);
  }
  // Cost-attribution profiler: armed process-wide before any engine runs;
  // the engines attach the table to RunStats and the footers render it.
  // A bare --profile reads as 1 and keeps the default capacity.
  if (args.has("profile") || args.has("profile-sample")) {
    ProfileOptions profile_options;
    const std::int64_t topk = args.getInt("profile", 1, 1, kMaxProfileTopK);
    if (topk > 1) {
      profile_options.sketch_capacity = static_cast<std::size_t>(topk);
    }
    profile_options.sample_every = static_cast<std::uint32_t>(
        args.getInt("profile-sample", profile_options.sample_every, 1,
                    std::numeric_limits<std::uint32_t>::max()));
    if (!args.flagError().isOk()) {
      return failArgs(args.flagError());
    }
    profile::arm(profile_options);
  }
  g_json_path = args.get("json", "");
  const std::string trace_path = args.get("trace", "");
  if (!trace_path.empty()) {
    Tracer::instance().start();
  }
  // Live telemetry wraps the run commands only: `analyze` reads --timeline=
  // instead of writing it, and generate / inspect have nothing to sample.
  RunTelemetryOptions telemetry_options;
  telemetry_options.sample_ms =
      args.has("sample-ms")
          ? static_cast<int>(args.getInt("sample-ms", 10, 1, kInt32Max))
          : -1;
  telemetry_options.timeline_path = args.get("timeline", "");
  telemetry_options.prom_path = args.get("prom", "");
  telemetry_options.prom_port =
      args.has("prom-port")
          ? static_cast<int>(args.getInt("prom-port", 0, 0, 65535))
          : -1;
  telemetry_options.label = command;
  if (!args.flagError().isOk()) {
    return failArgs(args.flagError());
  }
  const bool run_command = findAlgorithm(command) != nullptr ||
                           command == "check" || command == "stream" ||
                           command == "top";
  RunTelemetry telemetry(run_command ? telemetry_options
                                     : RunTelemetryOptions{});
  if (telemetry.armed()) {
    const Status status = telemetry.start();
    if (!status.isOk()) {
      std::fprintf(stderr, "tsgcli: %s\n", status.toString().c_str());
      return 1;
    }
  }
  int rc = dispatch(command, args);
  {
    const Status status = telemetry.finish();
    if (!status.isOk()) {
      std::fprintf(stderr, "tsgcli: %s\n", status.toString().c_str());
      g_output_failed = true;
    } else if (!telemetry_options.timeline_path.empty() && run_command) {
      std::printf("wrote timeline: %s\n",
                  telemetry_options.timeline_path.c_str());
    }
  }
  if (!trace_path.empty()) {
    Tracer::instance().stop();
    const Status status = Tracer::instance().writeJson(trace_path);
    if (status.isOk()) {
      std::printf("wrote trace: %s (%zu events)\n", trace_path.c_str(),
                  Tracer::instance().eventCount());
    } else {
      std::fprintf(stderr, "tsgcli: %s\n", status.toString().c_str());
      g_output_failed = true;
    }
  }
  return rc == 0 && g_output_failed ? 1 : rc;
}
