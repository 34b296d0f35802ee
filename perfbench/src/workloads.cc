#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "algorithms/hashtag.h"
#include "algorithms/meme.h"
#include "algorithms/reference.h"
#include "algorithms/tdsp.h"
#include "bench_common.h"
#include "generators/instances.h"
#include "gofs/dataset.h"
#include "observe.h"
#include "partition/partitioner.h"
#include "runtime/fault_injector.h"
#include "stream/ingestor.h"
#include "stream/replay.h"

namespace perfbench {
namespace {

using tsg::Schedule;
using tsg::Timestep;
using Layers = std::map<std::string, double>;

// The paper's smallest Fig. 5a configuration: 3 engine workers plus the
// coordinator (and, on the stream, the ingest thread) on a 4-core host.
constexpr std::uint32_t kPartitions = 3;
constexpr Schedule kSchedules[] = {Schedule::kBsp, Schedule::kAsync};
constexpr const char* kMeme = "#meme";
// Seed of the workloads' graphs and partitions (bench_common's default).
constexpr std::uint64_t kGraphSeed = 2015;
// Set-up passes per run; setup_s is the median of the kSetupReps after
// kSetupWarmups. The first two GoFS writes of a process land on fresh page
// cache and take 2-3x longer than the rest (0.8-1.3 s vs 0.3-0.4 s on
// tdsp-road). Counted, they let the median straddle the two regimes.
constexpr int kSetupWarmups = 2;
constexpr int kSetupReps = 7;
// meme-stream open loop: offered events per second. Each timestep's events
// are released evenly over one window, and the window is the length at
// which the whole stream arrives at this rate. About half the closed-loop
// capacity of the commit that introduced the benchmark.
constexpr double kOfferedRate = 18000.0;
// Above this share of k·wall the layer split is flagged as not explaining
// the job (reported, never failed).
constexpr double kUnattributedFlag = 0.05;

const char* scheduleName(Schedule s) {
  return s == Schedule::kBsp ? "bsp" : "async";
}

// kBatch: one algorithm job over GoFS. kOpenLoop: a stream job fed on the
// paced schedule. kClosedLoop: a stream job fed as fast as backpressure
// allows (the capacity replay).
enum class Kind { kBatch, kOpenLoop, kClosedLoop };

struct Job {
  Schedule schedule = Schedule::kBsp;
  Kind kind = Kind::kBatch;
  bool armed = false;
  bool ok = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double events = 0.0;            // input events the job consumed
  std::vector<double> result_ms;  // per timestep: input due -> t finished
  Layers layers;                  // armed jobs only
};

// Which schedules report a per-job layer metric: the global barrier exists
// only under BSP, ready waits, waves and steals only under async.
enum class Only { kBoth, kBsp, kAsync };

struct LayerDef {
  const char* name;
  const char* unit;
  Only only = Only::kBoth;
};

// Per-layer metrics of one job, reported per schedule (".bsp"/".async") as
// the median over the traced run's armed jobs. GLOSSARY.md says what each
// should move; a layer a workload does not exercise reads 0.
constexpr LayerDef kJobLayers[] = {
    {"gofs.instance_s", "s"},
    {"gofs.load_cpu_s", "s"},
    {"gofs.packs_loaded", "count"},
    {"gofs.pack_reload_ratio", "ratio"},
    {"core.compute_s", "s"},
    {"core.compute_critical_s", "s"},
    {"core.send_s", "s"},
    {"core.subgraphs_computed", "count"},
    {"core.merge_s", "s"},
    {"core.supersteps", "count"},
    {"core.imbalance", "ratio"},
    {"core.unattributed_frac", "ratio"},
    {"runtime.barrier_wait_s", "s", Only::kBsp},
    {"runtime.rounds", "count", Only::kBsp},
    {"runtime.ready_wait_s", "s", Only::kAsync},
    {"runtime.waves", "count", Only::kAsync},
    {"runtime.steals", "count", Only::kAsync},
    {"runtime.barrier_skips", "count", Only::kAsync},
    {"runtime.messages_delivered", "count"},
    {"runtime.bytes_delivered", "bytes"},
    {"runtime.cross_partition_bytes", "bytes"},
    {"runtime.spare_pool_hit_ratio", "ratio"},
    {"stream.events_ingested", "count"},
    {"stream.sealed_timesteps", "count"},
    {"stream.late_events", "count"},
    {"stream.await_s", "s"},
    {"stream.seal_to_start_ms_p50", "ms"},
    {"stream.materialize_s", "s"},
    {"stream.seal_lag_ms_p50", "ms"},
    {"stream.queue_max_depth", "count"},
    {"stream.skip_ratio", "ratio"},
    {"stream.generator_late_ms_p90", "ms"},
    {"checkpoint.saves", "count"},
    {"checkpoint.save_s", "s"},
    {"checkpoint.save_ms_p50", "ms"},
    {"checkpoint.bytes_per_save", "bytes"},
    {"bench.trace_overhead_frac", "ratio"},
    {"bench.jobs", "count"},
};

// Per-layer metrics of the run as a whole (set-up, oracle, result sizes).
constexpr LayerDef kRunLayers[] = {
    {"partition.assign_s", "s"},
    {"partition.subgraphs", "count"},
    {"partition.edge_cut_frac", "ratio"},
    {"gofs.write_s", "s"},
    {"gofs.open_s", "s"},
    {"check.oracle_s", "s"},
    {"algorithms.tdsp_finalized", "count"},
    {"algorithms.meme_colored", "count"},
    {"algorithms.hashtag_total", "count"},
};

double sec(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }
double msOf(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

template <typename T>
T unwrap(tsg::Result<T> result, const char* what) {
  if (!result.isOk()) {
    throw std::runtime_error(std::string(what) + ": " +
                             result.status().toString());
  }
  return std::move(result).value();
}

// SIR tweet instances on the WIKI graph, as bench_common makes them but
// seeded at 1024 vertices instead of 8. With 8, whether the outbreak takes
// off at all depends on the seed (~30 meme tweets on some seeds, ~22k on
// others); with 1024 every seed gives 27.5k-30.5k cell changes, so the
// workloads keep their size from seed to seed.
tsg::TimeSeriesCollection makeTweets(const tsg::GraphTemplatePtr& tmpl,
                                     const tsg::bench::BenchConfig& config,
                                     double background) {
  tsg::SirTweetOptions sir;
  sir.num_timesteps = config.timesteps;
  sir.seed = config.seed + 2;
  sir.meme = kMeme;
  sir.hit_probability =
      tsg::bench::memeHitProbability(tsg::bench::GraphKind::kWiki);
  sir.num_seed_vertices = 1024;
  sir.infectious_timesteps = 3;
  sir.background_probability = background;
  return unwrap(tsg::makeSirTweetInstances(tmpl, sir),
                "makeSirTweetInstances");
}

// Sum of one metric of the run's registry delta over all partition labels.
double metricTotal(const tsg::RunStats& stats, std::string_view name) {
  double total = 0.0;
  for (const auto& point : stats.metrics()) {
    if (point.name == name) {
      total += static_cast<double>(point.value);
    }
  }
  return total;
}

// The engine-side layer split of one job: RunStats records (compute, send,
// sync, load per partition and superstep) plus the registry delta (bus,
// scheduler, GoFS). `parked_ns` is time all partitions sat outside the
// superstep rounds for a reason the bench measured itself (awaiting stream
// input, checkpoint saves); it counts as attributed in the reconciliation.
// With `load_parked` the load_ns records fall inside parked_ns (the stream
// provider gathers each sealed timestep on the coordinator, in
// awaitTimestep), so they are left out of the sum instead of counted twice.
void addEngineLayers(const tsg::RunStats& stats, double wall_s,
                     std::int64_t parked_ns, bool load_parked, Layers& out) {
  const std::uint32_t k = stats.numPartitions();
  std::vector<std::int64_t> busy(k, 0);
  std::int64_t compute = 0;
  std::int64_t critical = 0;
  std::int64_t send = 0;
  std::int64_t sync = 0;
  std::int64_t load = 0;
  std::int64_t merge = 0;
  double subgraphs = 0.0;
  for (const auto& rec : stats.supersteps()) {
    std::int64_t slowest = 0;
    for (std::uint32_t p = 0; p < rec.parts.size() && p < k; ++p) {
      const auto& part = rec.parts[p];
      compute += part.compute_ns;
      send += part.send_ns;
      sync += part.sync_ns;
      load += part.load_ns;
      subgraphs += static_cast<double>(part.subgraphs_computed);
      const std::int64_t part_busy = part.compute_ns + part.send_ns +
                                     part.load_ns;
      busy[p] += part_busy;
      slowest = std::max(slowest, part.compute_ns);
      if (rec.is_merge_phase) {
        merge += part_busy;
      }
    }
    critical += slowest;
  }
  out["gofs.load_cpu_s"] = sec(load);
  out["core.compute_s"] = sec(compute);
  out["core.compute_critical_s"] = sec(critical);
  out["core.send_s"] = sec(send);
  out["core.subgraphs_computed"] = subgraphs;
  out["core.merge_s"] = sec(merge);
  out["core.supersteps"] = static_cast<double>(stats.totalSupersteps());
  double busy_sum = 0.0;
  double busy_max = 0.0;
  for (const auto b : busy) {
    busy_sum += static_cast<double>(b);
    busy_max = std::max(busy_max, static_cast<double>(b));
  }
  out["core.imbalance"] =
      busy_sum > 0 ? busy_max / (busy_sum / static_cast<double>(k)) : 0.0;
  const double capacity_ns = static_cast<double>(k) * wall_s * 1e9;
  const double attributed =
      static_cast<double>(compute + send + sync + (load_parked ? 0 : load)) +
      static_cast<double>(k) * static_cast<double>(parked_ns);
  out["core.unattributed_frac"] =
      capacity_ns > 0 ? (capacity_ns - attributed) / capacity_ns : 0.0;

  out["runtime.barrier_wait_s"] =
      metricTotal(stats, "cluster.barrier_wait_ns") / 1e9;
  out["runtime.rounds"] = metricTotal(stats, "cluster.rounds");
  out["runtime.ready_wait_s"] =
      metricTotal(stats, "engine.ready_wait_ns") / 1e9;
  out["runtime.waves"] = metricTotal(stats, "cluster.waves");
  out["runtime.steals"] = metricTotal(stats, "cluster.steals");
  out["runtime.barrier_skips"] = metricTotal(stats, "cluster.barrier_skips");
  out["runtime.messages_delivered"] =
      metricTotal(stats, "bus.messages_delivered");
  out["runtime.bytes_delivered"] = metricTotal(stats, "bus.bytes_delivered");
  out["runtime.cross_partition_bytes"] =
      metricTotal(stats, "bus.cross_partition_bytes");
  const double hits = metricTotal(stats, "bus.spare_pool_hits");
  const double misses = metricTotal(stats, "bus.spare_pool_misses");
  out["runtime.spare_pool_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  out["gofs.packs_loaded"] = metricTotal(stats, "gofs.packs_loaded");
}

// Wall and process-CPU clock of one job, from the run* call to its return.
class JobClock {
 public:
  JobClock() : start_ns_(nowNs()), start_cpu_ns_(processCpuNs()) {}

  // Stops the clock into `job`; returns the stop time.
  std::int64_t stop(Job& job) {
    const std::int64_t end = nowNs();
    job.wall_s = sec(end - start_ns_);
    job.cpu_s = sec(processCpuNs() - start_cpu_ns_);
    return end;
  }
  [[nodiscard]] std::int64_t startNs() const { return start_ns_; }

 private:
  std::int64_t start_ns_;
  std::int64_t start_cpu_ns_;
};

// Arms the fault plan for one job and disarms it afterwards, so every job
// sees the same injected faults.
class InjectionScope {
 public:
  explicit InjectionScope(const std::vector<tsg::fault::FaultSpec>& plan)
      : active_(!plan.empty()) {
    if (active_) {
      tsg::fault::FaultInjector::global().arm(plan);
    }
  }
  ~InjectionScope() {
    if (active_) {
      tsg::fault::FaultInjector::global().disarm();
    }
  }
  InjectionScope(const InjectionScope&) = delete;
  InjectionScope& operator=(const InjectionScope&) = delete;

 private:
  bool active_;
};

// --- workloads ---------------------------------------------------------------

class Workload {
 public:
  explicit Workload(const RunOptions& options) : opt_(options) {
    if (!options.inject.empty()) {
      plan_ = unwrap(tsg::fault::parseFaultPlan(options.inject), "--inject");
    }
  }
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Generates the inputs from the seed. Stands in for the user's raw data,
  // so it is outside every measurement.
  virtual void generate() = 0;
  // One set-up pass; returns its wall seconds.
  virtual double setup(int rep) = 0;
  virtual void computeOracle() = 0;
  virtual Job run(Schedule schedule, Kind kind, bool armed) = 0;
  [[nodiscard]] virtual bool streaming() const = 0;
  // Notes for stderr (scale, offered load).
  [[nodiscard]] virtual std::string describe() const = 0;

  // Run-level per-layer values (set-up medians, result sizes).
  [[nodiscard]] Layers runLayers() const {
    Layers out = run_layers_;
    out["partition.assign_s"] = median(assign_s_);
    out["gofs.write_s"] = median(write_s_);
    out["gofs.open_s"] = median(open_s_);
    return out;
  }
  void setRunLayer(const std::string& name, double value) {
    run_layers_[name] = value;
  }
  // Drops the set-up timings so far (the warm-up passes).
  void forgetSetups() {
    assign_s_.clear();
    write_s_.clear();
    open_s_.clear();
  }

 protected:
  // bench_common settings with the given generator seed. The graphs are
  // the workload's fixed datasets, like the paper's CARN and WIKI: they and
  // their partitioning use kGraphSeed. The run's --seed drives the
  // time-series data on them (road latencies, the outbreak), so a run's
  // cost does not hinge on which random topology a seed happens to draw.
  [[nodiscard]] tsg::bench::BenchConfig benchConfig(std::uint64_t seed) const {
    tsg::bench::BenchConfig config;
    config.scale_percent = opt_.scale_percent;
    config.seed = seed;
    return config;
  }

  // Partitions the template and builds the subgraph decomposition.
  tsg::PartitionedGraph partition(const tsg::GraphTemplatePtr& tmpl,
                                  const tsg::Partitioner& partitioner) {
    const std::int64_t start = nowNs();
    const auto assignment = partitioner.assign(*tmpl, kPartitions);
    auto pg = unwrap(tsg::PartitionedGraph::build(tmpl, assignment,
                                                  kPartitions),
                     "PartitionedGraph::build");
    assign_s_.push_back(sec(nowNs() - start));
    run_layers_["partition.subgraphs"] =
        static_cast<double>(pg.numSubgraphs());
    run_layers_["partition.edge_cut_frac"] =
        tsg::evaluatePartition(*tmpl, assignment, kPartitions).cut_fraction;
    return pg;
  }

  RunOptions opt_;
  std::vector<tsg::fault::FaultSpec> plan_;
  std::vector<double> assign_s_;
  std::vector<double> write_s_;
  std::vector<double> open_s_;
  Layers run_layers_;
};

// GoFS-backed batch workloads: set-up partitions (BFS), writes the dataset
// with the paper's packing 10 / binning 5 and opens it; every job reads it
// through a fresh provider.
class GofsWorkload : public Workload {
 public:
  GofsWorkload(const RunOptions& options, tsg::bench::GraphKind graph,
               tsg::bench::WorkloadKind data)
      : Workload(options), graph_(graph), data_(data) {}

  void generate() override {
    tmpl_ = tsg::bench::makeTemplate(graph_, data_, benchConfig(kGraphSeed));
    // Road latencies come from bench_common as they are; tweets carry its
    // background chatter (0.5%) on a reliably spreading outbreak.
    const auto config = benchConfig(opt_.seed);
    coll_ = data_ == tsg::bench::WorkloadKind::kRoad
                ? tsg::bench::makeCollection(tmpl_, data_, graph_, config)
                : makeTweets(tmpl_, config, /*background=*/0.005);
    cells_per_instance_ =
        static_cast<double>(tmpl_->numVertices() *
                                tmpl_->vertexSchema().size() +
                            tmpl_->numEdges() * tmpl_->edgeSchema().size());
  }

  double setup(int rep) override {
    const std::int64_t start = nowNs();
    const tsg::BfsPartitioner partitioner(kGraphSeed + 3);
    const auto pg = partition(tmpl_, partitioner);
    const std::string dir = opt_.data_dir + "/gofs" + std::to_string(rep);
    const std::int64_t write_start = nowNs();
    const tsg::Status written = tsg::writeGofsDataset(
        dir, tsg::bench::kindName(graph_), pg, coll_, tsg::GofsOptions{});
    if (!written.isOk()) {
      throw std::runtime_error("writeGofsDataset: " + written.toString());
    }
    const std::int64_t open_start = nowNs();
    auto ds = unwrap(tsg::GofsDataset::open(dir), "GofsDataset::open");
    const std::int64_t end = nowNs();
    write_s_.push_back(sec(open_start - write_start));
    open_s_.push_back(sec(end - open_start));
    ds_.emplace(std::move(ds));
    if (!dir_.empty()) {
      std::filesystem::remove_all(dir_);
    }
    dir_ = dir;
    return sec(end - start);
  }

  [[nodiscard]] bool streaming() const override { return false; }

  [[nodiscard]] std::string describe() const override {
    return tsg::bench::kindName(graph_) + " " +
           std::to_string(tmpl_->numVertices()) + " V, " +
           std::to_string(tmpl_->numEdges()) + " E, " +
           std::to_string(coll_.numInstances()) + " instances";
  }

 protected:
  // Runs `algo` over a fresh observed GoFS provider; fills the clocks and,
  // when armed, the layer split. `algo` returns the number of timesteps
  // executed, whether the result matches the oracle, and the engine result.
  template <typename Algo>
  Job runGofsJob(Schedule schedule, bool armed, Algo algo) {
    Job job;
    job.schedule = schedule;
    job.kind = Kind::kBatch;
    job.armed = armed;
    auto inner = ds_->makeProvider();
    ObservedProvider provider(*inner, armed);
    tsg::TiBspResult* exec = nullptr;
    Timestep executed = 0;
    JobClock clock;
    {
      InjectionScope inject(plan_);
      const auto [n, ok, result] = algo(ds_->partitionedGraph(), provider);
      clock.stop(job);
      executed = n;
      job.ok = ok;
      exec = result;
    }
    // Every instance is on disk when the job starts and the results come
    // back when it returns: each timestep's event-to-result time is the
    // job's wall time.
    job.result_ms.push_back(job.wall_s * 1e3);
    job.events = cells_per_instance_ * static_cast<double>(executed);
    if (armed && exec != nullptr) {
      addEngineLayers(exec->stats, job.wall_s, 0, false, job.layers);
      job.layers["gofs.instance_s"] = sec(provider.instanceNs());
      const auto packing = tsg::GofsOptions{}.temporal_packing;
      const double packs_min =
          kPartitions * std::ceil(static_cast<double>(executed) / packing);
      job.layers["gofs.pack_reload_ratio"] =
          job.layers["gofs.packs_loaded"] / packs_min;
    }
    return job;
  }

  tsg::bench::GraphKind graph_;
  tsg::bench::WorkloadKind data_;
  tsg::GraphTemplatePtr tmpl_;
  tsg::TimeSeriesCollection coll_;
  double cells_per_instance_ = 0.0;
  std::optional<tsg::GofsDataset> ds_;
  std::string dir_;
};

class TdspRoad final : public GofsWorkload {
 public:
  explicit TdspRoad(const RunOptions& options)
      : GofsWorkload(options, tsg::bench::GraphKind::kCarn,
                     tsg::bench::WorkloadKind::kRoad) {}

  void computeOracle() override {
    oracle_ = tsg::reference::timeDependentShortestPath(*tmpl_, coll_,
                                                        kLatencyAttr, kSource);
    setRunLayer("algorithms.tdsp_finalized",
                static_cast<double>(std::count_if(
                    oracle_.finalized_at.begin(), oracle_.finalized_at.end(),
                    [](Timestep t) { return t >= 0; })));
  }

  Job run(Schedule schedule, Kind, bool armed) override {
    tsg::TdspRun run;
    return runGofsJob(
        schedule, armed,
        [&](const tsg::PartitionedGraph& pg, tsg::InstanceProvider& provider) {
          tsg::TdspOptions options;
          options.source = kSource;
          options.latency_attr = kLatencyAttr;
          options.schedule = schedule;
          run = tsg::runTdsp(pg, provider, options);
          return std::tuple{run.exec.timesteps_executed, matches(run),
                            &run.exec};
        });
  }

 private:
  static constexpr tsg::VertexIndex kSource = 0;
  static constexpr std::size_t kLatencyAttr = 0;

  [[nodiscard]] bool matches(const tsg::TdspRun& run) const {
    if (run.finalized_at != oracle_.finalized_at ||
        run.tdsp.size() != oracle_.tdsp.size()) {
      return false;
    }
    for (std::size_t v = 0; v < run.tdsp.size(); ++v) {
      if (oracle_.finalized_at[v] >= 0 &&
          std::abs(run.tdsp[v] - oracle_.tdsp[v]) > 1e-9) {
        return false;
      }
    }
    return true;
  }

  tsg::reference::TdspResult oracle_;
};

class HashtagSocial final : public GofsWorkload {
 public:
  explicit HashtagSocial(const RunOptions& options)
      : GofsWorkload(options, tsg::bench::GraphKind::kWiki,
                     tsg::bench::WorkloadKind::kTweet) {}

  void computeOracle() override {
    oracle_ = tsg::reference::hashtagCounts(coll_, 0, kMeme);
    double total = 0.0;
    for (const auto c : oracle_) {
      total += static_cast<double>(c);
    }
    setRunLayer("algorithms.hashtag_total", total);
  }

  Job run(Schedule schedule, Kind, bool armed) override {
    tsg::HashtagRun run;
    return runGofsJob(
        schedule, armed,
        [&](const tsg::PartitionedGraph& pg, tsg::InstanceProvider& provider) {
          tsg::HashtagOptions options;
          options.tag = kMeme;
          options.schedule = schedule;
          run = tsg::runHashtagAggregation(pg, provider, options);
          return std::tuple{run.exec.timesteps_executed,
                            run.counts == oracle_, &run.exec};
        });
  }

 private:
  std::vector<std::uint64_t> oracle_;
};

// Meme tracking over a live stream. The input is the SIR collection with
// background chatter off, diffed into cell events; a PacedSource releases
// timestep t's events evenly from t·W to (t+1)·W − 1/rate after the job
// starts, with the window W set so that the whole stream arrives at the
// offered rate.
class MemeStream final : public Workload {
 public:
  explicit MemeStream(const RunOptions& options) : Workload(options) {}

  void generate() override {
    tmpl_ = tsg::bench::makeTemplate(tsg::bench::GraphKind::kWiki,
                                     tsg::bench::WorkloadKind::kTweet,
                                     benchConfig(kGraphSeed));
    coll_ = makeTweets(tmpl_, benchConfig(opt_.seed), /*background=*/0.0);
    events_ = tsg::stream::eventsFromCollection(coll_);
    schedulePacing();
  }

  double setup(int) override {
    const std::int64_t start = nowNs();
    // LDG scatters the power-law graph into thousands of small subgraphs,
    // so most of them are clean in a sparse timestep and skip (BFS regions
    // would give one subgraph per partition and no skips).
    const tsg::LdgPartitioner partitioner(kGraphSeed + 3);
    pg_.emplace(partition(tmpl_, partitioner));
    return sec(nowNs() - start);
  }

  void computeOracle() override {
    oracle_ = tsg::reference::memeSpread(*tmpl_, coll_, 0, kMeme);
    setRunLayer("algorithms.meme_colored",
                static_cast<double>(std::count_if(
                    oracle_.begin(), oracle_.end(),
                    [](Timestep t) { return t >= 0; })));
  }

  [[nodiscard]] bool streaming() const override { return true; }

  [[nodiscard]] std::string describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "WIKI %zu V, %zu events over %zu timesteps, offered "
                  "%.0f events/s (window %.2f ms)",
                  tmpl_->numVertices(), events_.size(), coll_.numInstances(),
                  kOfferedRate, msOf(window_ns_));
    return buf;
  }

  Job run(Schedule schedule, Kind kind, bool armed) override {
    Job job;
    job.schedule = schedule;
    job.kind = kind;
    job.armed = armed;
    const auto& pg = *pg_;
    const auto planned = coll_.numInstances();
    const std::string ckpt_dir =
        opt_.data_dir + "/ckpt" + std::to_string(++jobs_run_);

    tsg::stream::MemoryEventSource replay;
    replay.push(events_);
    replay.close();
    tsg::FileCheckpointStore file_store(ckpt_dir);
    ObservedCheckpointStore store(file_store, armed);

    tsg::stream::SealQueue queue(kQueueCapacity);
    tsg::stream::IngestorOptions ingest_options;
    ingest_options.planned_timesteps = static_cast<std::int32_t>(planned);
    tsg::stream::StreamIngestor ingestor(tmpl_, pg, coll_.t0(),
                                         coll_.delta(), queue, ingest_options);
    tsg::stream::StreamingInstanceProvider sealed(pg, tmpl_, planned,
                                                  coll_.t0(), coll_.delta(),
                                                  queue);
    ObservedProvider provider(sealed, armed);
    ObservedStream stream(sealed, planned);

    tsg::MemeOptions options;
    options.meme = kMeme;
    options.schedule = schedule;
    options.stream = &stream;
    options.checkpoint_store = &store;

    static const std::vector<std::int64_t> kUnpaced;
    const bool open = kind == Kind::kOpenLoop;
    JobClock clock;
    const std::int64_t epoch = clock.startNs();
    PacedSource source(replay, open ? due_ns_ : kUnpaced, epoch);
    tsg::MemeRun run;
    tsg::Status ingest_status;
    std::int64_t end = 0;
    {
      InjectionScope inject(plan_);
      tsg::stream::IngestThread ingest(ingestor, source);
      run = tsg::runMemeTracking(pg, provider, options);
      end = clock.stop(job);
      // Release the ingest thread if the run stopped short of the horizon.
      tsg::stream::SealedTimestep leftover;
      while (queue.pop(leftover)) {
      }
      ingest_status = ingest.join();
    }
    std::filesystem::remove_all(ckpt_dir);
    job.ok = ingest_status.isOk() && run.colored_at == oracle_ &&
             ingestor.lateEvents() == 0 &&
             ingestor.sealedTimesteps() == planned;
    job.events = static_cast<double>(events_.size());

    if (open) {
      // Timestep t's result is due once its last event is: from then to the
      // engine finishing t (its awaitTimestep for t+1, or the run's return).
      for (std::size_t t = 0; t < planned; ++t) {
        if (last_due_ns_[t] < 0) {
          continue;  // no events in t: nothing became due
        }
        const std::int64_t done =
            t + 1 < planned && stream.enterNs(static_cast<Timestep>(t + 1)) > 0
                ? stream.enterNs(static_cast<Timestep>(t + 1))
                : end;
        job.result_ms.push_back(msOf(done - (epoch + last_due_ns_[t])));
      }
    }
    if (armed) {
      const double save_ms = std::accumulate(store.saveMs().begin(),
                                             store.saveMs().end(), 0.0);
      const std::int64_t parked =
          stream.blockedNs() + static_cast<std::int64_t>(save_ms * 1e6);
      addEngineLayers(run.exec.stats, job.wall_s, parked, true, job.layers);
      addStreamLayers(run.exec.stats, ingestor, queue, stream, source, epoch,
                      open, job.layers);
      job.layers["gofs.instance_s"] = sec(provider.instanceNs());
      job.layers["checkpoint.saves"] = static_cast<double>(store.saves());
      job.layers["checkpoint.save_s"] = save_ms / 1e3;
      job.layers["checkpoint.save_ms_p50"] = median(store.saveMs());
      job.layers["checkpoint.bytes_per_save"] =
          store.saves() > 0 ? static_cast<double>(store.bytes()) /
                                  static_cast<double>(store.saves())
                            : 0.0;
    }
    return job;
  }

 private:
  static constexpr std::size_t kQueueCapacity = 4;

  // Due offsets of the open loop: the n events of timestep t at
  // t·W + j·(W − g)/(n − 1), j = 0..n-1, with g = 1/rate. The last event of
  // t then lands g before the first event of t+1, which seals t, whatever n
  // is. Spread over the whole window instead, a sparse timestep's last event
  // would wait W/n for its seal (8-16 ms for the 2-4 event timesteps of some
  // outbreak tails), and p90 event-to-result would follow the seed. Also
  // records, per
  // timestep, the offset of its last event (when its result becomes due)
  // and of the event that seals it (the first event of a later timestep:
  // the ingestor's watermark).
  void schedulePacing() {
    const auto planned = coll_.numInstances();
    window_ns_ = static_cast<std::int64_t>(
        static_cast<double>(events_.size()) /
        (kOfferedRate * static_cast<double>(planned)) * 1e9);
    const std::int64_t window_ns = window_ns_;
    const auto gap_ns = static_cast<std::int64_t>(1e9 / kOfferedRate);
    std::vector<std::int64_t> per_timestep(planned, 0);
    std::vector<std::size_t> timestep_of(events_.size());
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const auto t = static_cast<std::size_t>(
          (events_[i].timestamp - coll_.t0()) / coll_.delta());
      timestep_of[i] = std::min(t, planned - 1);
      ++per_timestep[timestep_of[i]];
    }
    due_ns_.resize(events_.size());
    last_due_ns_.assign(planned, -1);
    seal_due_ns_.assign(planned, -1);
    std::vector<std::int64_t> seen(planned, 0);
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const std::size_t t = timestep_of[i];
      due_ns_[i] = static_cast<std::int64_t>(t) * window_ns +
                   seen[t] * (window_ns - gap_ns) /
                       std::max<std::int64_t>(1, per_timestep[t] - 1);
      ++seen[t];
      last_due_ns_[t] = due_ns_[i];
    }
    // Timestep t seals when the first event of any later timestep arrives,
    // or when the source ends (just after the last event).
    std::int64_t next_first = events_.empty() ? 0 : due_ns_.back();
    for (std::size_t t = planned; t-- > 0;) {
      seal_due_ns_[t] = next_first;
      if (per_timestep[t] > 0) {
        next_first = static_cast<std::int64_t>(t) * window_ns;
      }
    }
  }

  void addStreamLayers(const tsg::RunStats& stats,
                       const tsg::stream::StreamIngestor& ingestor,
                       const tsg::stream::SealQueue& queue,
                       const ObservedStream& stream,
                       const PacedSource& source, std::int64_t epoch,
                       bool open, Layers& out) const {
    const auto planned = coll_.numInstances();
    out["stream.events_ingested"] =
        static_cast<double>(ingestor.eventsIngested());
    out["stream.sealed_timesteps"] =
        static_cast<double>(ingestor.sealedTimesteps());
    out["stream.late_events"] = static_cast<double>(ingestor.lateEvents());
    out["stream.await_s"] = sec(stream.blockedNs());
    out["stream.materialize_s"] = out["gofs.load_cpu_s"];
    out["stream.queue_max_depth"] = static_cast<double>(queue.maxDepth());
    const double skipped =
        metricTotal(stats, "engine.subgraphs_skipped_incremental");
    out["stream.skip_ratio"] =
        skipped / (static_cast<double>(pg_->numSubgraphs()) *
                   static_cast<double>(planned - 1));
    for (const auto& h : stats.histograms()) {
      if (h.name == "stream.seal_lag_ns") {
        out["stream.seal_lag_ms_p50"] =
            static_cast<double>(h.quantile(0.5)) / 1e6;
      }
    }
    if (open) {
      std::vector<double> seal_to_start;
      for (std::size_t t = 0; t < planned; ++t) {
        const std::int64_t started = stream.returnNs(static_cast<Timestep>(t));
        if (started > 0) {
          seal_to_start.push_back(msOf(started - (epoch + seal_due_ns_[t])));
        }
      }
      out["stream.seal_to_start_ms_p50"] = median(seal_to_start);
      std::vector<double> late;
      for (const auto ns : source.lateNs()) {
        late.push_back(msOf(ns));
      }
      out["stream.generator_late_ms_p90"] = quantile(late, 0.9);
    }
  }

  tsg::GraphTemplatePtr tmpl_;
  tsg::TimeSeriesCollection coll_;
  std::vector<tsg::stream::GraphEvent> events_;
  std::int64_t window_ns_ = 0;
  std::vector<std::int64_t> due_ns_;
  std::vector<std::int64_t> last_due_ns_;
  std::vector<std::int64_t> seal_due_ns_;
  std::optional<tsg::PartitionedGraph> pg_;
  std::vector<Timestep> oracle_;
  std::uint64_t jobs_run_ = 0;
};

std::unique_ptr<Workload> makeWorkload(const RunOptions& options) {
  if (options.workload == "tdsp-road") {
    return std::make_unique<TdspRoad>(options);
  }
  if (options.workload == "hashtag-social") {
    return std::make_unique<HashtagSocial>(options);
  }
  if (options.workload == "meme-stream") {
    return std::make_unique<MemeStream>(options);
  }
  throw std::runtime_error("unknown workload '" + options.workload + "'");
}

// --- summaries ---------------------------------------------------------------

std::vector<const Job*> select(const std::vector<Job>& jobs, Schedule s,
                               Kind kind, bool armed) {
  std::vector<const Job*> out;
  for (const auto& job : jobs) {
    if (job.schedule == s && job.kind == kind && job.armed == armed) {
      out.push_back(&job);
    }
  }
  return out;
}

template <typename F>
std::vector<double> collect(const std::vector<const Job*>& jobs, F value) {
  std::vector<double> out;
  out.reserve(jobs.size());
  for (const Job* job : jobs) {
    out.push_back(value(*job));
  }
  return out;
}

// The end-to-end metrics of an untraced run.
std::vector<Metric> endToEndMetrics(const std::vector<Job>& jobs,
                                    const std::vector<double>& setups,
                                    Kind timed_kind, Kind result_kind,
                                    double peak_rss_mb,
                                    const RunResult& result) {
  std::vector<Metric> metrics;
  metrics.push_back({"setup_s", median(setups), "s"});
  for (const Schedule s : kSchedules) {
    const std::string suffix = std::string(".") + scheduleName(s);
    const auto timed = select(jobs, s, timed_kind, false);
    const auto walls = collect(timed, [](const Job& j) { return j.wall_s; });
    metrics.push_back({"job_s_p50" + suffix, median(walls), "s"});
    metrics.push_back(
        {"cpu_s_per_job" + suffix,
         median(collect(timed, [](const Job& j) { return j.cpu_s; })), "s"});
    // Event-to-result percentiles are taken within each job over its
    // timesteps, then the median over jobs: a typical job's p50 and p90.
    const auto result_jobs = select(jobs, s, result_kind, false);
    for (const auto& [metric, q] : {std::pair{"event_to_result_ms_p50", 0.5},
                                  std::pair{"event_to_result_ms_p90", 0.9}}) {
      metrics.push_back(
          {metric + suffix, median(collect(result_jobs, [q](const Job& j) {
             return quantile(j.result_ms, q);
           })),
           "ms"});
    }
    metrics.push_back(
        {"stream_capacity_ev_per_s" + suffix,
         median(collect(timed,
                        [](const Job& j) { return j.events / j.wall_s; })),
         "events/s"});
    std::size_t result_samples = 0;
    for (const Job* job : result_jobs) {
      result_samples += job->result_ms.size();
    }
    std::fprintf(stderr,
                 "  %s: %zu timed jobs (wall s: min %.3f p25 %.3f p50 %.3f "
                 "p75 %.3f max %.3f), %zu event-to-result samples\n",
                 scheduleName(s), timed.size(), quantile(walls, 0),
                 quantile(walls, 0.25), quantile(walls, 0.5),
                 quantile(walls, 0.75), quantile(walls, 1), result_samples);
  }
  metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  metrics.push_back({"ok_fraction",
                     static_cast<double>(result.attempted - result.failed) /
                         static_cast<double>(result.attempted),
                     "ratio"});
  return metrics;
}

// The per-layer metrics of a traced run: run-level values, then per
// schedule the median over the armed jobs plus the trace overhead.
std::vector<Metric> layerMetrics(const std::vector<Job>& jobs,
                                 const Layers& run_layers, Kind timed_kind,
                                 Kind layer_kind) {
  std::vector<Metric> metrics;
  for (const auto& def : kRunLayers) {
    const auto it = run_layers.find(def.name);
    metrics.push_back(
        {def.name, it == run_layers.end() ? 0.0 : it->second, def.unit});
  }
  for (const Schedule s : kSchedules) {
    const std::string suffix = std::string(".") + scheduleName(s);
    const auto traced = select(jobs, s, layer_kind, true);
    Layers layers;
    for (const auto& def : kJobLayers) {
      layers[def.name] = median(collect(traced, [&def](const Job& j) {
        const auto it = j.layers.find(def.name);
        return it == j.layers.end() ? 0.0 : it->second;
      }));
    }
    const auto wall = [](const Job& j) { return j.wall_s; };
    const double armed_wall =
        median(collect(select(jobs, s, timed_kind, true), wall));
    const double plain_wall =
        median(collect(select(jobs, s, timed_kind, false), wall));
    layers["bench.trace_overhead_frac"] =
        plain_wall > 0 ? armed_wall / plain_wall - 1.0 : 0.0;
    layers["bench.jobs"] = static_cast<double>(traced.size());
    const Only excluded = s == Schedule::kBsp ? Only::kAsync : Only::kBsp;
    for (const auto& def : kJobLayers) {
      if (def.only != excluded) {
        metrics.push_back({def.name + suffix, layers[def.name], def.unit});
      }
    }
    const double unattributed = layers["core.unattributed_frac"];
    if (unattributed > kUnattributedFlag) {
      std::fprintf(stderr,
                   "  flag: %s core.unattributed_frac %.3f > %.2f: the "
                   "layer split does not explain the job\n",
                   scheduleName(s), unattributed, kUnattributedFlag);
    }
  }
  return metrics;
}

}  // namespace

RunResult runWorkload(const RunOptions& options) {
  auto workload = makeWorkload(options);
  workload->generate();
  std::fprintf(stderr, "perfbench %s: seed %llu, %s\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               workload->describe().c_str());

  std::fprintf(stderr, "  warm-up set-up s:");
  for (int rep = 0; rep < kSetupWarmups; ++rep) {
    std::fprintf(stderr, " %.3f", workload->setup(rep));
  }
  std::fprintf(stderr, "\n");
  workload->forgetSetups();
  std::vector<double> setups;
  for (int rep = kSetupWarmups; rep < kSetupWarmups + kSetupReps; ++rep) {
    setups.push_back(workload->setup(rep));
  }
  std::fprintf(stderr, "  set-up s:");
  for (const double s : setups) {
    std::fprintf(stderr, " %.3f", s);
  }
  std::fprintf(stderr, "\n");
  const std::int64_t oracle_start = nowNs();
  workload->computeOracle();
  workload->setRunLayer("check.oracle_s", sec(nowNs() - oracle_start));

  RunResult result;
  const auto account = [&result](const Job& job) {
    ++result.attempted;
    if (!job.ok) {
      ++result.failed;
    }
  };
  // Batch jobs are timed and hold the results; on the stream the closed-loop
  // replay is timed and the open-loop jobs hold the event-to-result times.
  const bool streaming = workload->streaming();
  const Kind timed_kind = streaming ? Kind::kClosedLoop : Kind::kBatch;
  const Kind result_kind = streaming ? Kind::kOpenLoop : Kind::kBatch;
  // The first job of each schedule in a process warms caches and lazy
  // set-up; it is checked but not timed.
  for (const Schedule s : kSchedules) {
    account(workload->run(s, timed_kind, false));
    trimHeap();
  }

  // Closed loop: the next job starts when the previous one returns,
  // alternating schedules. The traced run adds an unarmed twin of each
  // timed job, for the trace overhead and the decorated == undecorated
  // check (both are compared with the oracle).
  resetPeakRss();
  std::vector<Job> jobs;
  const auto deadline =
      nowNs() + static_cast<std::int64_t>(options.seconds * 1e9);
  const auto runJob = [&](Schedule s, Kind kind, bool armed) {
    jobs.push_back(workload->run(s, kind, armed));
    trimHeap();
  };
  do {
    for (const Schedule s : kSchedules) {
      if (streaming) {
        runJob(s, Kind::kOpenLoop, options.trace);
      }
      runJob(s, timed_kind, options.trace);
      if (options.trace) {
        runJob(s, timed_kind, false);
      }
    }
  } while (nowNs() < deadline);
  const double peak_rss_mb = peakRssMb();
  for (const auto& job : jobs) {
    account(job);
  }
  result.correct = result.failed == 0;
  result.metrics =
      options.trace
          ? layerMetrics(jobs, workload->runLayers(), timed_kind, result_kind)
          : endToEndMetrics(jobs, setups, timed_kind, result_kind,
                            peak_rss_mb, result);
  std::fprintf(stderr, "  %llu jobs attempted, %llu failed\n",
               static_cast<unsigned long long>(result.attempted),
               static_cast<unsigned long long>(result.failed));
  return result;
}

}  // namespace perfbench
