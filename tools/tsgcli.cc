// tsgcli — command-line front end for the tsgraph library.
//
//   tsgcli generate --out=DIR [--kind=road|social] [--vertices=N]
//          [--timesteps=T] [--partitions=K] [--workload=road|tweet]
//          [--seed=S] [--closures=P] [--hit=P] [--background=P]
//          [--packing=N]
//   tsgcli inspect DIR
//   tsgcli tdsp DIR [--source=V] [--no-while] [--closures] [--outputs]
//   tsgcli meme DIR [--tag=#meme] [--outputs]
//   tsgcli hashtag DIR [--tag=#meme]
//   tsgcli pagerank DIR [--iters=N] [--top=N]
//   tsgcli wcc DIR
//   tsgcli check ALGO DIR [--runs=N] [--seed=S] [--stream]
//   tsgcli stream ALGO DIR [--events=FILE] [--verify]
//   tsgcli analyze RUN.json
//   tsgcli compare BASE.json CANDIDATE.json [--max-regress=PCT]
//
// Every analysis command prints the result summary plus the run's
// utilization split (the Fig. 7b-style table). All analysis commands also
// accept --trace=PATH (Perfetto/Chrome trace-event JSON of the run) and
// --json=PATH (machine-readable RunStats export). `analyze` and `compare`
// consume those --json exports: analyze prints the critical-path /
// straggler breakdown, compare is the regression gate CI runs against a
// committed baseline. Fault tolerance: --checkpoint=DIR persists a
// recovery point at every timestep boundary and --inject=PLAN (or
// TSG_INJECT) arms the fault injector; analyze reports any recoveries a
// run survived. Log verbosity comes from the TSG_LOG_LEVEL
// environment variable (debug|info|warn|error) or the --log-level= flag
// (the flag wins).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/hashtag.h"
#include "algorithms/meme.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "algorithms/tdsp.h"
#include "algorithms/tdsp_vertex.h"
#include "algorithms/topn.h"
#include "algorithms/wcc.h"
#include "check/bsp_checker.h"
#include "check/determinism.h"
#include "check/digest.h"
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
#include "metrics/analysis.h"
#include "metrics/report.h"
#include "partition/partitioner.h"
#include "profile/advisor.h"
#include "profile/profiler.h"
#include "runtime/fault_injector.h"
#include "stream/ingestor.h"
#include "stream/replay.h"
#include "stream/source.h"
#include "telemetry/run_telemetry.h"
#include "telemetry/timeline.h"
#include "vertexcentric/programs.h"

#ifdef __linux__
#include <unistd.h>
#endif

namespace {

using namespace tsg;

// --key=value / --flag argument map plus positional arguments.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  [[nodiscard]] std::int64_t getInt(const std::string& key,
                                    std::int64_t fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : std::atoll(it->second.c_str());
  }
  [[nodiscard]] double getDouble(const std::string& key,
                                 double fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : std::atof(it->second.c_str());
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return options.count(key) > 0;
  }
};

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        args.options[arg.substr(2)] = "1";
      } else {
        args.options[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      args.positional.push_back(std::move(arg));
    }
  }
  return args;
}

int usage() {
  std::fputs(
      "usage: tsgcli <command> [args]\n"
      "  generate --out=DIR [--kind=road|social] [--vertices=N]\n"
      "           [--timesteps=T] [--partitions=K] [--workload=road|tweet]\n"
      "           [--seed=S] [--closures=P] [--hit=P] [--background=P]\n"
      "           [--packing=N]\n"
      "  inspect  DIR\n"
      "  tdsp     DIR [--source=V] [--no-while] [--closures] [--outputs]\n"
      "  meme     DIR [--tag=#meme] [--outputs]\n"
      "  hashtag  DIR [--tag=#meme]\n"
      "  pagerank DIR [--iters=N] [--top=N]\n"
      "  wcc      DIR\n"
      "  check    ALGO DIR [--runs=N] [--seed=S] [--schedule=bsp|async]\n"
      "           [--json=PATH]  (stats of the last run; with --profile,\n"
      "            the vertex engines' attribution reaches `analyze`)\n"
      "           ALGO: tdsp|meme|hashtag|pagerank|sssp|wcc|topn|\n"
      "                 tdsp-vertex|sssp-vertex\n"
      "           runs ALGO N times under perturbed worker schedules with\n"
      "           the BSP protocol checker on; exit 1 if outputs diverge\n"
      "           (with --schedule=async, also runs the BSP reference once\n"
      "            and requires the async digests to match it; with\n"
      "            --stream, every run replays the dataset through the\n"
      "            streaming ingest pipeline and must match the cold batch\n"
      "            BSP reference)\n"
      "  stream   ALGO DIR [--events=FILE [--follow]] [--queue=N]\n"
      "           [--max-staged=N] [--schedule=bsp|async] [--verify]\n"
      "           continuous ingestion: replays an append-only event stream\n"
      "           (default: the dataset's own instance diffs) through the\n"
      "           bounded seal queue while ALGO runs incrementally over\n"
      "           timesteps as they seal; prints the stream summary\n"
      "           (--verify also runs the cold batch reference and exits 1\n"
      "            unless the digests match)\n"
      "  analyze  RUN.json [--attrib] | --timeline=TIMELINE.json\n"
      "           --attrib: render the cost-attribution report (per-subgraph\n"
      "           table, hot vertices, per-timestep skew, partition advisor)\n"
      "  compare  BASE.json CANDIDATE.json [--max-regress=PCT]\n"
      "  top      ALGO DIR [--schedule=bsp|async] [--sample-ms=N]\n"
      "           [--refresh-ms=N]\n"
      "           runs ALGO with the telemetry sampler on and renders a\n"
      "           live progress view until the job completes\n"
      "analysis commands also take:\n"
      "  --trace=PATH   write a Perfetto/Chrome trace of the run\n"
      "  --json=PATH    write machine-readable run stats (JSON)\n"
      "  --sample-ms=N  telemetry sampling cadence (default 10 when any\n"
      "                 telemetry flag is present; off otherwise)\n"
      "  --timeline=PATH  write the sampled timeline JSON at exit\n"
      "                   (for `analyze`, the flag names a file to read)\n"
      "  --prom=PATH    rewrite a Prometheus text exposition during the run\n"
      "  --prom-port=N  serve the exposition over HTTP (0 = ephemeral port)\n"
      "  --checkpoint=DIR  checkpoint each timestep to DIR and recover from\n"
      "                    injected worker faults (serial temporal mode)\n"
      "  --schedule=bsp|async  superstep scheduling: global barrier (bsp,\n"
      "                        default) or dependency-driven waves with\n"
      "                        work stealing (async; identical output)\n"
      "  --profile[=TOPK]   arm the cost-attribution profiler (per-subgraph\n"
      "                     accounting + top-K heavy-hitter sketches;\n"
      "                     TOPK defaults to 64)\n"
      "  --profile-sample=N time every Nth vertex in the vertex-centric\n"
      "                     engines (default 8; implies --profile)\n"
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

// Builds the store named by --checkpoint=DIR; null (no checkpointing) when
// the flag is absent. The caller owns the store for the run's duration.
std::unique_ptr<CheckpointStore> makeCheckpointStore(const Args& args) {
  const std::string dir = args.get("checkpoint", "");
  if (dir.empty()) {
    return nullptr;
  }
  return std::make_unique<FileCheckpointStore>(dir);
}

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

// Short attribution footer for run commands (full report: analyze --attrib):
// the heaviest subgraphs by attributed compute, plus the scheduler blame
// line when any wait was charged.
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

void printRunFooter(const RunStats& stats) {
  printFaultSummary(stats);
  printAttributionSummary(stats);
  std::fputs(summarizeRun(stats, "run").c_str(), stdout);
  std::fputc('\n', stdout);
  std::fputs(renderUtilization(stats, "per-partition split").c_str(), stdout);
  if (!g_json_path.empty()) {
    if (writeTextFile(g_json_path, runStatsToJson(stats, "run"))) {
      std::printf("wrote run stats: %s\n", g_json_path.c_str());
    } else {
      std::fprintf(stderr, "tsgcli: cannot write %s\n", g_json_path.c_str());
    }
  }
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
      static_cast<std::uint32_t>(args.getInt("vertices", 10000));
  const auto timesteps =
      static_cast<std::uint32_t>(args.getInt("timesteps", 50));
  const auto partitions =
      static_cast<std::uint32_t>(args.getInt("partitions", 4));
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
  const double closures = args.getDouble("closures", 0.0);

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
    options.hit_probability = args.getDouble("hit", 0.1);
    options.background_probability = args.getDouble("background", 0.01);
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
  gofs.temporal_packing = static_cast<std::uint32_t>(args.getInt("packing", 10));
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

int cmdTdsp(const Args& args) {
  auto ds = openFrom(args);
  if (!ds.isOk()) {
    return fail(ds.status());
  }
  const auto& pg = ds.value().partitionedGraph();
  const auto& schema = pg.graphTemplate().edgeSchema();
  if (schema.indexOf(kLatencyAttr) == AttributeSchema::npos) {
    return fail(Status::failedPrecondition(
        "dataset has no 'latency' edge attribute — generate with "
        "--workload=road"));
  }
  auto provider = ds.value().makeProvider();
  TdspOptions options;
  options.source = static_cast<VertexIndex>(args.getInt("source", 0));
  options.latency_attr = schema.requireIndex(kLatencyAttr);
  options.while_mode = !args.has("no-while");
  options.emit_outputs = args.has("outputs");
  if (args.has("closures")) {
    if (schema.indexOf(kExistsAttr) == AttributeSchema::npos) {
      return fail(Status::failedPrecondition(
          "dataset has no 'exists' edge attribute — generate with "
          "--closures=P"));
    }
    options.exists_attr = schema.requireIndex(kExistsAttr);
  }
  const auto store = makeCheckpointStore(args);
  options.checkpoint_store = store.get();
  if (!parseSchedule(args, &options.schedule)) {
    return 2;
  }
  const auto run = runTdsp(pg, *provider, options);

  std::uint64_t reached = 0;
  double worst = 0;
  for (VertexIndex v = 0; v < run.tdsp.size(); ++v) {
    if (run.finalized_at[v] >= 0) {
      ++reached;
      worst = std::max(worst, run.tdsp[v]);
    }
  }
  std::printf("tdsp: reached %llu / %zu vertices in %d timesteps; latest "
              "arrival %.2f\n",
              static_cast<unsigned long long>(reached), run.tdsp.size(),
              run.exec.timesteps_executed, worst);
  for (const auto& line : run.exec.outputs) {
    std::puts(line.c_str());
  }
  printRunFooter(run.exec.stats);
  return 0;
}

int cmdMeme(const Args& args) {
  auto ds = openFrom(args);
  if (!ds.isOk()) {
    return fail(ds.status());
  }
  const auto& pg = ds.value().partitionedGraph();
  const auto& schema = pg.graphTemplate().vertexSchema();
  if (schema.indexOf(kTweetsAttr) == AttributeSchema::npos) {
    return fail(Status::failedPrecondition(
        "dataset has no 'tweets' vertex attribute — generate with "
        "--workload=tweet"));
  }
  auto provider = ds.value().makeProvider();
  MemeOptions options;
  options.meme = args.get("tag", "#meme");
  options.tweets_attr = schema.requireIndex(kTweetsAttr);
  options.emit_outputs = args.has("outputs");
  const auto store = makeCheckpointStore(args);
  options.checkpoint_store = store.get();
  if (!parseSchedule(args, &options.schedule)) {
    return 2;
  }
  const auto run = runMemeTracking(pg, *provider, options);

  std::uint64_t colored = 0;
  for (const auto t : run.colored_at) {
    colored += t >= 0 ? 1 : 0;
  }
  std::printf("meme %s: reached %llu / %zu vertices over %d timesteps\n",
              options.meme.c_str(),
              static_cast<unsigned long long>(colored), run.colored_at.size(),
              run.exec.timesteps_executed);
  std::fputs(renderCounterSeries(run.exec.stats, kMemeColoredCounter,
                                 "newly colored")
                 .c_str(),
             stdout);
  for (const auto& line : run.exec.outputs) {
    std::puts(line.c_str());
  }
  printRunFooter(run.exec.stats);
  return 0;
}

int cmdHashtag(const Args& args) {
  auto ds = openFrom(args);
  if (!ds.isOk()) {
    return fail(ds.status());
  }
  const auto& pg = ds.value().partitionedGraph();
  const auto& schema = pg.graphTemplate().vertexSchema();
  if (schema.indexOf(kTweetsAttr) == AttributeSchema::npos) {
    return fail(Status::failedPrecondition(
        "dataset has no 'tweets' vertex attribute"));
  }
  auto provider = ds.value().makeProvider();
  HashtagOptions options;
  options.tag = args.get("tag", "#meme");
  options.tweets_attr = schema.requireIndex(kTweetsAttr);
  const auto store = makeCheckpointStore(args);
  options.checkpoint_store = store.get();
  if (!parseSchedule(args, &options.schedule)) {
    return 2;
  }
  const auto run = runHashtagAggregation(pg, *provider, options);

  TextTable table({"timestep", "count", "rate of change"});
  for (std::size_t t = 0; t < run.counts.size(); ++t) {
    table.addRow({std::to_string(t), std::to_string(run.counts[t]),
                  std::to_string(run.rate_of_change[t])});
  }
  std::fputs(table.render().c_str(), stdout);
  printRunFooter(run.exec.stats);
  return 0;
}

int cmdPageRank(const Args& args) {
  auto ds = openFrom(args);
  if (!ds.isOk()) {
    return fail(ds.status());
  }
  const auto& pg = ds.value().partitionedGraph();
  auto provider = ds.value().makeProvider();
  PageRankOptions options;
  options.iterations = static_cast<std::int32_t>(args.getInt("iters", 30));
  const auto store = makeCheckpointStore(args);
  options.checkpoint_store = store.get();
  if (!parseSchedule(args, &options.schedule)) {
    return 2;
  }
  const auto run = runSubgraphPageRank(pg, *provider, options);

  const auto top_n = static_cast<std::size_t>(args.getInt("top", 10));
  std::vector<VertexIndex> order(run.ranks.size());
  for (VertexIndex v = 0; v < order.size(); ++v) {
    order[v] = v;
  }
  const std::size_t keep = std::min(top_n, order.size());
  std::partial_sort(order.begin(), order.begin() + keep, order.end(),
                    [&](VertexIndex a, VertexIndex b) {
                      return run.ranks[a] > run.ranks[b];
                    });
  TextTable table({"rank", "vertex id", "pagerank"});
  for (std::size_t i = 0; i < keep; ++i) {
    table.addRow({std::to_string(i + 1),
                  std::to_string(pg.graphTemplate().vertexId(order[i])),
                  TextTable::fmtDouble(run.ranks[order[i]], 6)});
  }
  std::fputs(table.render().c_str(), stdout);
  printRunFooter(run.exec.stats);
  return 0;
}

int cmdWcc(const Args& args) {
  auto ds = openFrom(args);
  if (!ds.isOk()) {
    return fail(ds.status());
  }
  const auto& pg = ds.value().partitionedGraph();
  auto provider = ds.value().makeProvider();
  WccOptions options;
  const auto store = makeCheckpointStore(args);
  options.checkpoint_store = store.get();
  if (!parseSchedule(args, &options.schedule)) {
    return 2;
  }
  const auto run = runSubgraphWcc(pg, *provider, options);
  std::printf("weakly connected components: %zu (over %zu vertices)\n",
              run.num_components, run.component.size());
  printRunFooter(run.exec.stats);
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

// The full --attrib report: per-subgraph cost table, per-timestep skew
// series, heavy-hitter vertices, and the partition-quality advisor cross-
// referenced with the critical-path analysis.
void printAttributionReport(const AttributionTable& attrib,
                            const CriticalPathAnalysis& analysis) {
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
                   "computes", "msgs out", "msgs in", "KB out", "KB in",
                   "resident KB"});
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
                              1),
         TextTable::fmtDouble(
             static_cast<double>(totals[sg].resident_bytes) / 1e3, 1)});
  }
  std::printf("== cost attribution: subgraphs by compute (top %zu of %zu) ==\n%s",
              keep, totals.size(), table.render().c_str());

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
    TextTable t({"vertex", "partition", "weight<=", "error"});
    const std::size_t n = std::min<std::size_t>(10, hot.size());
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

  const AdvisorReport advice = advisePartitioning(attrib, &analysis);
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
    return fail(loaded.status());
  }
  const auto& run = loaded.value();
  const std::string label =
      run.label.empty() ? args.positional[0] : run.label;
  printFaultSummary(run.stats);
  const auto analysis = analyzeCriticalPath(run.stats);
  std::fputs(renderCriticalPath(analysis, label).c_str(), stdout);
  std::fputs(renderUtilization(run.stats, label).c_str(), stdout);
  std::fputs(renderHistogramQuantiles(run.stats).c_str(), stdout);
  if (args.has("attrib")) {
    if (!run.stats.hasAttribution() || run.stats.attribution().empty()) {
      std::fputs(
          "tsgcli analyze: no attribution block in this run (record one "
          "with --profile= on the run command)\n",
          stderr);
      return 2;
    }
    printAttributionReport(run.stats.attribution(), analysis);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// check — BSP protocol checking + determinism harness over an algorithm.
// ---------------------------------------------------------------------------

// Digests an algorithm's semantic outputs for one run. Each branch hashes
// exactly the values a user would consume — never timings or metrics.
// `stats_out`, when non-null, receives the run's RunStats (including any
// armed attribution) so `check --json=` can persist a vertex-engine run —
// the only CLI path that exercises the vertex-centric engines.
Result<std::string> runAlgoDigestOn(const std::string& algo,
                                    const PartitionedGraph& pg,
                                    InstanceProvider& provider,
                                    Schedule schedule,
                                    TimestepStream* stream = nullptr,
                                    RunStats* stats_out = nullptr) {
  const auto& vertex_schema = pg.graphTemplate().vertexSchema();
  const auto& edge_schema = pg.graphTemplate().edgeSchema();
  check::Digest d;

  if (algo == "tdsp" || algo == "sssp" || algo == "tdsp-vertex") {
    if (edge_schema.indexOf(kLatencyAttr) == AttributeSchema::npos) {
      return Status::failedPrecondition(
          "dataset has no 'latency' edge attribute — generate with "
          "--workload=road");
    }
  }
  if (algo == "meme" || algo == "hashtag" || algo == "topn") {
    if (vertex_schema.indexOf(kTweetsAttr) == AttributeSchema::npos) {
      return Status::failedPrecondition(
          "dataset has no 'tweets' vertex attribute — generate with "
          "--workload=tweet");
    }
  }

  if (algo == "tdsp") {
    TdspOptions options;
    options.schedule = schedule;
    options.stream = stream;
    options.latency_attr = edge_schema.requireIndex(kLatencyAttr);
    const auto run = runTdsp(pg, provider, options);
    if (stats_out != nullptr) {
      *stats_out = run.exec.stats;
    }
    d.addDoubles(run.tdsp);
    d.addVector(run.finalized_at, [](check::Digest& dd, Timestep t) {
      dd.addI64(t);
    });
    d.addI64(run.exec.timesteps_executed);
  } else if (algo == "meme") {
    MemeOptions options;
    options.schedule = schedule;
    options.stream = stream;
    options.tweets_attr = vertex_schema.requireIndex(kTweetsAttr);
    const auto run = runMemeTracking(pg, provider, options);
    if (stats_out != nullptr) {
      *stats_out = run.exec.stats;
    }
    d.addVector(run.colored_at, [](check::Digest& dd, Timestep t) {
      dd.addI64(t);
    });
  } else if (algo == "hashtag") {
    HashtagOptions options;
    options.schedule = schedule;
    options.stream = stream;
    options.tweets_attr = vertex_schema.requireIndex(kTweetsAttr);
    const auto run = runHashtagAggregation(pg, provider, options);
    if (stats_out != nullptr) {
      *stats_out = run.exec.stats;
    }
    d.addU64s(run.counts);
    d.addI64s(run.rate_of_change);
  } else if (algo == "pagerank") {
    PageRankOptions options;
    options.schedule = schedule;
    options.stream = stream;
    const auto run = runSubgraphPageRank(pg, provider, options);
    if (stats_out != nullptr) {
      *stats_out = run.exec.stats;
    }
    d.addDoubles(run.ranks);
  } else if (algo == "sssp") {
    SsspOptions options;
    options.schedule = schedule;
    options.stream = stream;
    options.latency_attr = edge_schema.requireIndex(kLatencyAttr);
    const auto run = runSubgraphSssp(pg, provider, options);
    if (stats_out != nullptr) {
      *stats_out = run.exec.stats;
    }
    d.addDoubles(run.distances);
  } else if (algo == "wcc") {
    WccOptions options;
    options.schedule = schedule;
    options.stream = stream;
    const auto run = runSubgraphWcc(pg, provider, options);
    if (stats_out != nullptr) {
      *stats_out = run.exec.stats;
    }
    d.addVector(run.component, [](check::Digest& dd, VertexIndex v) {
      dd.addU64(v);
    });
    d.addU64(run.num_components);
  } else if (algo == "topn") {
    TopNOptions options;
    options.schedule = schedule;
    options.stream = stream;
    if (stream != nullptr) {
      // Streaming serializes the timestep loop: sealed instances arrive in
      // order, so the concurrent temporal mode cannot apply.
      options.temporal_mode = TemporalMode::kSerial;
    }
    options.tweets_attr = vertex_schema.requireIndex(kTweetsAttr);
    const auto run = runTopActiveVertices(pg, provider, options);
    if (stats_out != nullptr) {
      *stats_out = run.exec.stats;
    }
    d.addU64(run.top.size());
    for (const auto& per_t : run.top) {
      d.addVector(per_t, [](check::Digest& dd, VertexIndex v) {
        dd.addU64(v);
      });
    }
  } else if (algo == "tdsp-vertex") {
    VertexTdspOptions options;
    options.schedule = schedule;
    options.stream = stream;
    options.latency_attr = edge_schema.requireIndex(kLatencyAttr);
    const auto run = runVertexTdsp(pg, provider, options);
    if (stats_out != nullptr) {
      *stats_out = run.exec.stats;
    }
    d.addDoubles(run.tdsp);
    d.addVector(run.finalized_at, [](check::Digest& dd, Timestep t) {
      dd.addI64(t);
    });
  } else if (algo == "sssp-vertex") {
    // The plain (non-temporal) vertex-centric engine has no timestep loop
    // and therefore no wave schedule; it always runs barriered BSP. The
    // flag is accepted so sweeps can pass a uniform --schedule=async.
    vertexcentric::SsspVertexProgram program(0);
    vertexcentric::VertexCentricEngine engine(pg);
    const auto run = engine.run(program, vertexcentric::VcConfig{},
                                [](VertexIndex) {
                                  return vertexcentric::kInf;
                                });
    if (stats_out != nullptr) {
      *stats_out = run.stats;
    }
    d.addDoubles(run.values);
    d.addI64(run.supersteps);
  } else {
    return Status::invalidArgument("unknown algorithm '" + algo +
                                   "' (expected tdsp, meme, hashtag, "
                                   "pagerank, sssp, wcc, topn, tdsp-vertex "
                                   "or sssp-vertex)");
  }
  return d.hex();
}

// Batch entry point: reads every timestep straight from the dataset.
Result<std::string> runAlgoDigest(const std::string& algo,
                                  const GofsDataset& ds,
                                  Schedule schedule,
                                  RunStats* stats_out = nullptr) {
  auto provider = ds.makeProvider();
  return runAlgoDigestOn(algo, ds.partitionedGraph(), *provider, schedule,
                         /*stream=*/nullptr, stats_out);
}

// Reassembles the dataset's instances into full-graph form and diffs them
// into the append-only event stream a live ingestor would have consumed.
Result<std::vector<stream::GraphEvent>> datasetEvents(const GofsDataset& ds) {
  const auto& pg = ds.partitionedGraph();
  auto provider = ds.makeProvider();
  TimeSeriesCollection coll(pg.templatePtr(), provider->t0(),
                            provider->delta());
  for (Timestep t = 0; t < static_cast<Timestep>(provider->numInstances());
       ++t) {
    TSG_RETURN_IF_ERROR(coll.appendInstance(
        stream::assembleInstance(pg, pg.graphTemplate(), *provider, t)));
  }
  return stream::eventsFromCollection(coll);
}

// Streamed entry point: replays `events` through an ingest thread and the
// bounded SealQueue; the engine blocks on each timestep's seal and skips
// clean subgraphs incrementally. sssp-vertex has no timestep loop (nothing
// to stream), so it falls through to the batch path — harness sweeps can
// still pass a uniform --stream.
Result<std::string> runAlgoDigestStreamed(
    const std::string& algo, const GofsDataset& ds, Schedule schedule,
    const std::vector<stream::GraphEvent>& events,
    RunStats* stats_out = nullptr) {
  if (algo == "sssp-vertex") {
    return runAlgoDigest(algo, ds, schedule, stats_out);
  }
  const auto& pg = ds.partitionedGraph();
  auto batch = ds.makeProvider();
  const std::size_t planned = batch->numInstances();

  stream::SealQueue queue(4);
  stream::IngestorOptions opts;
  opts.planned_timesteps = static_cast<std::int32_t>(planned);
  stream::StreamIngestor ingestor(pg.templatePtr(), pg, batch->t0(),
                                  batch->delta(), queue, opts);
  stream::StreamingInstanceProvider sp(pg, pg.templatePtr(), planned,
                                       batch->t0(), batch->delta(), queue);
  stream::MemoryEventSource source;
  source.push(events);
  source.close();

  stream::IngestThread ingest(ingestor, source);
  auto digest =
      runAlgoDigestOn(algo, pg, sp, schedule, &sp, stats_out);
  // tdsp's while-mode can stop before the planned horizon: drain whatever
  // the ingest thread is still sealing so its backpressure block releases
  // and the join below cannot deadlock.
  stream::SealedTimestep leftover;
  while (queue.pop(leftover)) {
  }
  const Status ingest_status = ingest.join();
  if (!ingest_status.isOk()) {
    return ingest_status;
  }
  return digest;
}

int cmdCheck(const Args& args) {
  if (args.positional.size() < 2) {
    std::fputs("tsgcli check: need <algo> and <dataset dir> arguments\n",
               stderr);
    return 2;
  }
  const std::string& algo = args.positional[0];
  auto ds = GofsDataset::open(args.positional[1]);
  if (!ds.isOk()) {
    return fail(ds.status());
  }
  Schedule schedule = Schedule::kBsp;
  if (!parseSchedule(args, &schedule)) {
    return 2;
  }
  const bool streamed = args.has("stream");

  // Protocol checking is on for every harness run; a violation prints its
  // diagnostic (rule, partition, superstep, flow) and aborts the process.
  check::setEnabled(true);

  // --stream: every harness run replays this event stream through the
  // ingest pipeline instead of reading the dataset directly. The events are
  // diffed once up front so all runs see identical input.
  std::vector<stream::GraphEvent> events;
  if (streamed) {
    auto ev = datasetEvents(ds.value());
    if (!ev.isOk()) {
      return fail(ev.status());
    }
    events = std::move(ev).value();
  }

  check::DeterminismOptions options;
  options.runs = static_cast<std::int32_t>(args.getInt("runs", 3));
  options.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
  if (options.runs < 1) {
    std::fputs("tsgcli check: --runs must be >= 1\n", stderr);
    return 2;
  }

  // The async schedule's contract is digest-identity with BSP, and the
  // streamed pipeline's contract is digest-identity with the cold batch
  // run: compute the unperturbed batch BSP reference once and require
  // every harness run to reproduce its digest exactly.
  std::string bsp_reference;
  if (schedule == Schedule::kAsync || streamed) {
    auto reference = runAlgoDigest(algo, ds.value(), Schedule::kBsp);
    if (!reference.isOk()) {
      return fail(reference.status());
    }
    bsp_reference = std::move(reference).value();
  }

  Status failed = Status::ok();
  RunStats last_stats;
  const auto report = check::checkDeterminism(
      options, [&](std::int32_t) -> std::string {
        auto digest =
            streamed ? runAlgoDigestStreamed(algo, ds.value(), schedule,
                                             events, &last_stats)
                     : runAlgoDigest(algo, ds.value(), schedule, &last_stats);
        if (!digest.isOk()) {
          failed = digest.status();
          return "";
        }
        return std::move(digest).value();
      });
  if (!failed.isOk()) {
    return fail(failed);
  }
  // --json= persists the last harness run's stats. This is the only CLI
  // route into the vertex-centric engines, so it is also how their
  // attribution tables (per-vertex heavy-hitter sketches) reach `analyze`.
  if (!g_json_path.empty()) {
    if (writeTextFile(g_json_path,
                      runStatsToJson(last_stats, "check " + algo))) {
      std::printf("wrote run stats: %s\n", g_json_path.c_str());
    } else {
      std::fprintf(stderr, "tsgcli: cannot write %s\n", g_json_path.c_str());
    }
  }
  std::fputs(
      check::renderDeterminismReport(report, algo + " on " +
                                                 args.positional[1])
          .c_str(),
      stdout);
  if (!report.deterministic) {
    return 1;
  }
  const bool gated = schedule == Schedule::kAsync || streamed;
  const char* variant =
      streamed ? (schedule == Schedule::kAsync ? "streamed async" : "streamed")
               : "async";
  if (gated && !report.runs.empty() &&
      report.runs.front().digest != bsp_reference) {
    std::printf("%s run DIVERGES from the batch BSP reference:\n"
                "  batch bsp  %s\n  %-10s %s\n",
                variant, bsp_reference.c_str(), variant,
                report.runs.front().digest.c_str());
    return 1;
  }
  if (gated) {
    std::printf("%s digest matches the batch BSP reference (%s)\n", variant,
                bsp_reference.c_str());
  }
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
  auto ds = GofsDataset::open(args.positional[1]);
  if (!ds.isOk()) {
    return fail(ds.status());
  }
  Schedule schedule = Schedule::kBsp;
  if (!parseSchedule(args, &schedule)) {
    return 2;
  }
  if (algo == "sssp-vertex") {
    std::fputs("tsgcli stream: sssp-vertex has no timestep loop to stream\n",
               stderr);
    return 2;
  }

  const auto& pg = ds.value().partitionedGraph();
  auto batch = ds.value().makeProvider();
  const std::size_t planned = batch->numInstances();

  const auto queue_cap = static_cast<std::size_t>(
      std::max<std::int64_t>(1, args.getInt("queue", 4)));
  stream::SealQueue queue(queue_cap);
  stream::IngestorOptions opts;
  opts.planned_timesteps = static_cast<std::int32_t>(planned);
  opts.max_staged_cells = static_cast<std::size_t>(
      std::max<std::int64_t>(0, args.getInt("max-staged", 0)));
  stream::StreamIngestor ingestor(pg.templatePtr(), pg, batch->t0(),
                                  batch->delta(), queue, opts);
  stream::StreamingInstanceProvider sp(pg, pg.templatePtr(), planned,
                                       batch->t0(), batch->delta(), queue);

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
    auto replay = datasetEvents(ds.value());
    if (!replay.isOk()) {
      return fail(replay.status());
    }
    auto mem = std::make_unique<stream::MemoryEventSource>();
    mem->push(std::move(replay).value());
    mem->close();
    source = std::move(mem);
  }

  const auto skipped_before =
      MetricsRegistry::global()
          .counter("engine.subgraphs_skipped_incremental")
          .value();
  Stopwatch sw;
  stream::IngestThread ingest(ingestor, *source);
  RunStats stats;
  auto digest = runAlgoDigestOn(algo, pg, sp, schedule, &sp, &stats);
  // Release the ingest thread's backpressure block if the run stopped
  // before the planned horizon (tdsp while-mode, engine error).
  stream::SealedTimestep leftover;
  while (queue.pop(leftover)) {
  }
  const Status ingest_status = ingest.join();
  if (!ingest_status.isOk()) {
    return fail(ingest_status);
  }
  if (!digest.isOk()) {
    return fail(digest.status());
  }
  const std::uint64_t skipped =
      MetricsRegistry::global()
          .counter("engine.subgraphs_skipped_incremental")
          .value() -
      skipped_before;

  std::printf("streamed %s over %s: %zu/%zu timesteps sealed (%.1f s)\n",
              algo.c_str(), args.positional[1].c_str(), sp.sealedCount(),
              planned, sw.elapsedSec());
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
  std::printf("  digest: %s\n", digest.value().c_str());

  int rc = 0;
  if (args.has("verify")) {
    auto reference = runAlgoDigest(algo, ds.value(), Schedule::kBsp);
    if (!reference.isOk()) {
      return fail(reference.status());
    }
    const bool match = reference.value() == digest.value();
    std::printf("  batch_digest: %s\n", reference.value().c_str());
    std::printf("  digest_match: %s\n", match ? "yes" : "no");
    if (!match) {
      std::fputs("tsgcli stream: streamed digest DIVERGES from the cold "
                 "batch run\n",
                 stderr);
      rc = 1;
    }
  }
  printRunFooter(stats);
  return rc;
}

// ---------------------------------------------------------------------------
// top — live terminal view of a running job, fed by the telemetry ring.
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
  auto ds = GofsDataset::open(args.positional[1]);
  if (!ds.isOk()) {
    return fail(ds.status());
  }
  Schedule schedule = Schedule::kBsp;
  if (!parseSchedule(args, &schedule)) {
    return 2;
  }
  const auto num_partitions = ds.value().partitionedGraph().numPartitions();

  TelemetryOptions sampler_options;
  sampler_options.sample_ms =
      static_cast<int>(args.getInt("sample-ms", 20));
  sampler_options.label = "top " + algo;
  TelemetrySampler sampler(sampler_options);
  sampler.start();

  // The job runs on its own thread so this one can keep redrawing. The
  // digest result is only read after join().
  Result<std::string> digest = Status::internal("job did not run");
  std::atomic<bool> done{false};
  std::thread job([&] {  // NOLINT(tsg-naked-thread)
    digest = runAlgoDigest(algo, ds.value(), schedule);
    done.store(true, std::memory_order_release);  // tsg:mo(release publishes the digest to the polling loop)
  });

  const auto refresh =
      std::chrono::milliseconds(args.getInt("refresh-ms", 200));
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
    TelemetrySample sample;
    if (!sampler.ring().latest(sample)) {
      continue;
    }
    const double elapsed_s = static_cast<double>(steadyNowNs() - t0) / 1e9;
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
  sampler.stop();

  // Final frame from a synchronous capture so the end state is exact.
  const double elapsed_s = static_cast<double>(steadyNowNs() - t0) / 1e9;
  const TelemetrySample last = TelemetrySampler::captureSample();
  std::printf("%s", renderTopFrame(algo, num_partitions, last,
                                   has_prev ? &prev : nullptr, elapsed_s)
                        .c_str());
  // Sampler health footer: how many frames the ring produced, how many a
  // slow consumer cost us, and how far the tick thread fell behind.
  std::printf("telemetry: %llu samples, %llu dropped, %llu missed ticks\n",
              static_cast<unsigned long long>(sampler.ring().produced()),
              static_cast<unsigned long long>(sampler.ring().droppedSamples()),
              static_cast<unsigned long long>(sampler.missedTicks()));
  if (!digest.isOk()) {
    return fail(digest.status());
  }
  std::printf("done in %.1f s; digest %s\n", elapsed_s,
              digest.value().c_str());
  return 0;
}

int cmdCompare(const Args& args) {
  if (args.positional.size() < 2) {
    std::fputs("tsgcli compare: need BASE.json and CANDIDATE.json\n", stderr);
    return 2;
  }
  auto base = loadRunStatsFile(args.positional[0]);
  if (!base.isOk()) {
    std::fprintf(stderr, "tsgcli: %s\n", base.status().toString().c_str());
    return 2;
  }
  auto candidate = loadRunStatsFile(args.positional[1]);
  if (!candidate.isOk()) {
    std::fprintf(stderr, "tsgcli: %s\n",
                 candidate.status().toString().c_str());
    return 2;
  }
  CompareThresholds thresholds;
  thresholds.max_regress_pct = args.getDouble("max-regress", 10.0);
  const auto result =
      compareRuns(base.value(), candidate.value(), thresholds);
  std::fputs(renderCompare(result).c_str(), stdout);
  return result.pass ? 0 : 1;
}

}  // namespace

int dispatch(const std::string& command, const Args& args) {
  if (command == "generate") {
    return cmdGenerate(args);
  }
  if (command == "inspect") {
    return cmdInspect(args);
  }
  if (command == "tdsp") {
    return cmdTdsp(args);
  }
  if (command == "meme") {
    return cmdMeme(args);
  }
  if (command == "hashtag") {
    return cmdHashtag(args);
  }
  if (command == "pagerank") {
    return cmdPageRank(args);
  }
  if (command == "wcc") {
    return cmdWcc(args);
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
  if (command == "compare") {
    return cmdCompare(args);
  }
  if (command == "top") {
    return cmdTop(args);
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
        static_cast<std::uint64_t>(args.getInt("inject-seed", 42)));
  } else {
    fault::armFromEnv();
  }
  // Cost-attribution profiler: armed process-wide before any engine runs;
  // the engines attach the table to RunStats and the footers render it.
  if (args.has("profile") || args.has("profile-sample")) {
    ProfileOptions profile_options;
    const std::int64_t topk = args.getInt("profile", 0);
    if (topk > 1) {
      profile_options.sketch_capacity = static_cast<std::size_t>(topk);
    }
    const std::int64_t sample = args.getInt("profile-sample", 0);
    if (sample > 0) {
      profile_options.sample_every = static_cast<std::uint32_t>(sample);
    }
    Profiler::global().arm(profile_options);
  }
  g_json_path = args.get("json", "");
  const std::string trace_path = args.get("trace", "");
  if (!trace_path.empty()) {
    Tracer::instance().start();
  }
  // Live telemetry wraps the run commands only: `analyze` reads --timeline=
  // instead of writing it, `top` drives its own sampler, and compare /
  // generate / inspect have nothing to sample.
  RunTelemetryOptions telemetry_options;
  telemetry_options.sample_ms =
      args.has("sample-ms")
          ? static_cast<int>(args.getInt("sample-ms", 10))
          : -1;
  telemetry_options.timeline_path = args.get("timeline", "");
  telemetry_options.prom_path = args.get("prom", "");
  telemetry_options.prom_port =
      args.has("prom-port")
          ? static_cast<int>(args.getInt("prom-port", 0))
          : -1;
  telemetry_options.label = command;
  const bool run_command = command == "tdsp" || command == "meme" ||
                           command == "hashtag" || command == "pagerank" ||
                           command == "wcc" || command == "check" ||
                           command == "stream";
  RunTelemetry telemetry(run_command ? telemetry_options
                                     : RunTelemetryOptions{});
  if (telemetry.armed()) {
    const Status status = telemetry.start();
    if (!status.isOk()) {
      std::fprintf(stderr, "tsgcli: %s\n", status.toString().c_str());
      return 1;
    }
  }
  const int rc = dispatch(command, args);
  {
    const Status status = telemetry.finish();
    if (!status.isOk()) {
      std::fprintf(stderr, "tsgcli: %s\n", status.toString().c_str());
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
    }
  }
  return rc;
}
