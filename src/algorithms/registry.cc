#include "algorithms/registry.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "algorithms/hashtag.h"
#include "algorithms/meme.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "algorithms/tdsp.h"
#include "algorithms/tdsp_vertex.h"
#include "algorithms/topn.h"
#include "algorithms/wcc.h"
#include "check/digest.h"
#include "common/table.h"
#include "generators/topology.h"
#include "metrics/report.h"
#include "vertexcentric/engine.h"
#include "vertexcentric/programs.h"

namespace tsg {

void FlagMap::set(std::string key, std::string value) {
  values_[std::move(key)] = std::move(value);
}

bool FlagMap::has(std::string_view key) const {
  return values_.find(key) != values_.end();
}

std::string FlagMap::get(std::string_view key, std::string fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? std::move(fallback) : it->second;
}

Result<std::int64_t> FlagMap::getInt(std::string_view key,
                                     std::int64_t fallback, std::int64_t min,
                                     std::int64_t max) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  const std::string& text = it->second;
  std::int64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  const std::string flag = "--" + std::string(key) + "=" + text;
  if (ec != std::errc() || end != text.data() + text.size()) {
    return Status::invalidArgument(flag + " is not an integer");
  }
  if (value < min || value > max) {
    return Status::invalidArgument(flag + " is out of range [" +
                                   std::to_string(min) + ", " +
                                   std::to_string(max) + "]");
  }
  return value;
}

Result<double> FlagMap::getDouble(std::string_view key,
                                  double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  const std::string& text = it->second;
  double value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() ||
      !std::isfinite(value)) {
    return Status::invalidArgument("--" + std::string(key) + "=" + text +
                                   " is not a number");
  }
  return value;
}

namespace {

std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list sized;
  va_copy(sized, args);
  const int size = std::vsnprintf(nullptr, 0, fmt, sized);
  va_end(sized);
  std::string out(static_cast<std::size_t>(std::max(size, 0)), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

void addTimesteps(check::Digest& d, const std::vector<Timestep>& ts) {
  d.addVector(ts, [](check::Digest& dd, Timestep t) { dd.addI64(t); });
}

void addVertices(check::Digest& d, const std::vector<VertexIndex>& vs) {
  d.addVector(vs, [](check::Digest& dd, VertexIndex v) { dd.addU64(v); });
}

// Vertices finalized by the end of the run and their latest arrival.
std::string arrivalSummary(std::string_view name,
                           const std::vector<double>& arrival,
                           const std::vector<Timestep>& finalized_at,
                           Timestep timesteps) {
  std::uint64_t reached = 0;
  double worst = 0;
  for (std::size_t v = 0; v < arrival.size(); ++v) {
    if (finalized_at[v] >= 0) {
      ++reached;
      worst = std::max(worst, arrival[v]);
    }
  }
  return format("%.*s: reached %llu / %zu vertices in %d timesteps; latest "
                "arrival %.2f\n",
                static_cast<int>(name.size()), name.data(),
                static_cast<unsigned long long>(reached), arrival.size(),
                timesteps, worst);
}

// The request fields every algorithm's options struct shares.
template <typename Options>
Options optionsFor(const AlgorithmRequest& request) {
  Options options;
  options.schedule = request.schedule;
  options.stream = request.stream;
  options.checkpoint_store = request.checkpoint_store;
  return options;
}

std::size_t latencyAttr(const PartitionedGraph& pg) {
  return pg.graphTemplate().edgeSchema().requireIndex(kLatencyAttr);
}

std::size_t tweetsAttr(const PartitionedGraph& pg) {
  return pg.graphTemplate().vertexSchema().requireIndex(kTweetsAttr);
}

Result<AlgorithmRun> runTdspEntry(const PartitionedGraph& pg,
                                  InstanceProvider& provider,
                                  const AlgorithmRequest& request) {
  const FlagMap& params = request.params;
  auto options = optionsFor<TdspOptions>(request);
  options.latency_attr = latencyAttr(pg);
  // Vertex ids are dense indices in [0, n).
  const auto n = static_cast<std::int64_t>(pg.graphTemplate().numVertices());
  const auto source = params.getInt("source", 0, 0, n - 1);
  if (!source.isOk()) {
    return source.status();
  }
  options.source = static_cast<VertexIndex>(source.value());
  options.while_mode = !params.has("no-while");
  options.emit_outputs = params.has("outputs");
  if (params.has("closures")) {
    const auto& schema = pg.graphTemplate().edgeSchema();
    if (schema.indexOf(kExistsAttr) == AttributeSchema::npos) {
      return Status::failedPrecondition(
          "dataset has no 'exists' edge attribute — generate with "
          "--closures=P");
    }
    options.exists_attr = schema.requireIndex(kExistsAttr);
  }
  auto run = runTdsp(pg, provider, options);
  check::Digest d;
  d.addDoubles(run.tdsp);
  addTimesteps(d, run.finalized_at);
  d.addI64(run.exec.timesteps_executed);
  return AlgorithmRun{
      d.hex(), std::move(run.exec.stats), std::move(run.exec.outputs),
      arrivalSummary("tdsp", run.tdsp, run.finalized_at,
                     run.exec.timesteps_executed)};
}

Result<AlgorithmRun> runMemeEntry(const PartitionedGraph& pg,
                                  InstanceProvider& provider,
                                  const AlgorithmRequest& request) {
  auto options = optionsFor<MemeOptions>(request);
  options.tweets_attr = tweetsAttr(pg);
  options.meme = request.params.get("tag", options.meme);
  options.emit_outputs = request.params.has("outputs");
  auto run = runMemeTracking(pg, provider, options);
  check::Digest d;
  addTimesteps(d, run.colored_at);
  const auto colored = std::count_if(run.colored_at.begin(),
                                     run.colored_at.end(),
                                     [](Timestep t) { return t >= 0; });
  std::string summary =
      format("meme %s: reached %lld / %zu vertices over %d timesteps\n",
             options.meme.c_str(), static_cast<long long>(colored),
             run.colored_at.size(), run.exec.timesteps_executed) +
      renderCounterSeries(run.exec.stats, kMemeColoredCounter,
                          "newly colored");
  return AlgorithmRun{d.hex(), std::move(run.exec.stats),
                      std::move(run.exec.outputs), std::move(summary)};
}

Result<AlgorithmRun> runHashtagEntry(const PartitionedGraph& pg,
                                     InstanceProvider& provider,
                                     const AlgorithmRequest& request) {
  auto options = optionsFor<HashtagOptions>(request);
  options.tweets_attr = tweetsAttr(pg);
  options.tag = request.params.get("tag", options.tag);
  auto run = runHashtagAggregation(pg, provider, options);
  check::Digest d;
  d.addU64s(run.counts);
  d.addI64s(run.rate_of_change);
  TextTable table({"timestep", "count", "rate of change"});
  for (std::size_t t = 0; t < run.counts.size(); ++t) {
    table.addRow({std::to_string(t), std::to_string(run.counts[t]),
                  std::to_string(run.rate_of_change[t])});
  }
  // The merge always emits one line per timestep; the table above carries
  // the same counts, so no output lines are returned.
  return AlgorithmRun{d.hex(), std::move(run.exec.stats), {},
                      table.render()};
}

Result<AlgorithmRun> runPageRankEntry(const PartitionedGraph& pg,
                                      InstanceProvider& provider,
                                      const AlgorithmRequest& request) {
  auto options = optionsFor<PageRankOptions>(request);
  auto iters = request.params.getInt("iters", options.iterations, 0,
                                     std::numeric_limits<std::int32_t>::max());
  auto top = request.params.getInt("top", 10, 0);
  if (!iters.isOk()) {
    return iters.status();
  }
  if (!top.isOk()) {
    return top.status();
  }
  options.iterations = static_cast<std::int32_t>(iters.value());
  auto run = runSubgraphPageRank(pg, provider, options);
  check::Digest d;
  d.addDoubles(run.ranks);

  std::vector<VertexIndex> order(run.ranks.size());
  for (VertexIndex v = 0; v < order.size(); ++v) {
    order[v] = v;
  }
  const std::size_t keep =
      std::min(static_cast<std::size_t>(top.value()), order.size());
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
  return AlgorithmRun{d.hex(), std::move(run.exec.stats), {},
                      table.render()};
}

Result<AlgorithmRun> runSsspEntry(const PartitionedGraph& pg,
                                  InstanceProvider& provider,
                                  const AlgorithmRequest& request) {
  auto options = optionsFor<SsspOptions>(request);
  options.latency_attr = latencyAttr(pg);
  auto run = runSubgraphSssp(pg, provider, options);
  check::Digest d;
  d.addDoubles(run.distances);
  std::uint64_t reached = 0;
  double farthest = 0;
  for (const double dist : run.distances) {
    if (std::isfinite(dist)) {
      ++reached;
      farthest = std::max(farthest, dist);
    }
  }
  return AlgorithmRun{
      d.hex(), std::move(run.exec.stats), {},
      format("sssp: reached %llu / %zu vertices; farthest %.2f\n",
             static_cast<unsigned long long>(reached), run.distances.size(),
             farthest)};
}

Result<AlgorithmRun> runWccEntry(const PartitionedGraph& pg,
                                 InstanceProvider& provider,
                                 const AlgorithmRequest& request) {
  auto options = optionsFor<WccOptions>(request);
  auto run = runSubgraphWcc(pg, provider, options);
  check::Digest d;
  addVertices(d, run.component);
  d.addU64(run.num_components);
  return AlgorithmRun{
      d.hex(), std::move(run.exec.stats), {},
      format("weakly connected components: %zu (over %zu vertices)\n",
             run.num_components, run.component.size())};
}

Result<AlgorithmRun> runTopNEntry(const PartitionedGraph& pg,
                                  InstanceProvider& provider,
                                  const AlgorithmRequest& request) {
  auto options = optionsFor<TopNOptions>(request);
  options.tweets_attr = tweetsAttr(pg);
  auto run = runTopActiveVertices(pg, provider, options);
  check::Digest d;
  d.addU64(run.top.size());
  std::size_t ranked = 0;
  for (const auto& per_t : run.top) {
    addVertices(d, per_t);
    ranked += per_t.size();
  }
  return AlgorithmRun{
      d.hex(), std::move(run.exec.stats), {},
      format("topn: %zu ranked vertices over %zu timesteps (top %zu each)\n",
             ranked, run.top.size(), options.n)};
}

Result<AlgorithmRun> runVertexTdspEntry(const PartitionedGraph& pg,
                                        InstanceProvider& provider,
                                        const AlgorithmRequest& request) {
  auto options = optionsFor<VertexTdspOptions>(request);
  options.latency_attr = latencyAttr(pg);
  auto run = runVertexTdsp(pg, provider, options);
  check::Digest d;
  d.addDoubles(run.tdsp);
  addTimesteps(d, run.finalized_at);
  return AlgorithmRun{
      d.hex(), std::move(run.exec.stats), {},
      arrivalSummary("tdsp-vertex", run.tdsp, run.finalized_at,
                     run.exec.timesteps_executed)};
}

// The plain vertex-centric engine reads no instance and always runs
// barriered BSP (the schedule is accepted so sweeps can pass a uniform
// --schedule=async). It recovers from worker faults by restarting, so it
// needs no checkpoint store.
Result<AlgorithmRun> runVertexSsspEntry(const PartitionedGraph& pg,
                                        InstanceProvider& /*provider*/,
                                        const AlgorithmRequest& /*request*/) {
  vertexcentric::SsspVertexProgram program(0);
  vertexcentric::VertexCentricEngine engine(pg);
  auto run = engine.run(program, vertexcentric::VcConfig{},
                        [](VertexIndex) { return vertexcentric::kInf; });
  check::Digest d;
  d.addDoubles(run.values);
  d.addI64(run.supersteps);
  const auto reached = std::count_if(run.values.begin(), run.values.end(),
                                     [](double v) { return std::isfinite(v); });
  return AlgorithmRun{
      d.hex(), std::move(run.stats), {},
      format("sssp-vertex: reached %lld / %zu vertices in %d supersteps\n",
             static_cast<long long>(reached), run.values.size(),
             run.supersteps)};
}

constexpr AlgorithmEntry kAlgorithms[] = {
    {"tdsp", NeededAttr::kLatencyEdge, true,
     "[--source=V] [--no-while] [--closures] [--outputs]", runTdspEntry},
    {"meme", NeededAttr::kTweetsVertex, true, "[--tag=#meme] [--outputs]",
     runMemeEntry},
    {"hashtag", NeededAttr::kTweetsVertex, true, "[--tag=#meme]",
     runHashtagEntry},
    {"pagerank", NeededAttr::kNone, true, "[--iters=N] [--top=N]",
     runPageRankEntry},
    {"sssp", NeededAttr::kLatencyEdge, true, "", runSsspEntry},
    {"wcc", NeededAttr::kNone, true, "", runWccEntry},
    {"topn", NeededAttr::kTweetsVertex, true, "", runTopNEntry},
    {"tdsp-vertex", NeededAttr::kLatencyEdge, true, "", runVertexTdspEntry},
    {"sssp-vertex", NeededAttr::kNone, false, "", runVertexSsspEntry},
};

}  // namespace

std::span<const AlgorithmEntry> algorithms() { return kAlgorithms; }

const AlgorithmEntry* findAlgorithm(std::string_view name) {
  for (const AlgorithmEntry& entry : kAlgorithms) {
    if (entry.name == name) {
      return &entry;
    }
  }
  return nullptr;
}

Result<AlgorithmRun> runAlgorithm(const AlgorithmEntry& entry,
                                  const PartitionedGraph& pg,
                                  InstanceProvider& provider,
                                  const AlgorithmRequest& request) {
  const GraphTemplate& tmpl = pg.graphTemplate();
  if (entry.needs == NeededAttr::kLatencyEdge &&
      tmpl.edgeSchema().indexOf(kLatencyAttr) == AttributeSchema::npos) {
    return Status::failedPrecondition(
        "dataset has no 'latency' edge attribute — generate with "
        "--workload=road");
  }
  if (entry.needs == NeededAttr::kTweetsVertex &&
      tmpl.vertexSchema().indexOf(kTweetsAttr) == AttributeSchema::npos) {
    return Status::failedPrecondition(
        "dataset has no 'tweets' vertex attribute — generate with "
        "--workload=tweet");
  }
  return entry.run(pg, provider, request);
}

}  // namespace tsg
