#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>

// Under ThreadSanitizer malloc is TSan's allocator, so glibc's arenas are
// never set up; concurrent first calls to malloc_trim then race on glibc's
// lazy initialization and can crash the maintenance round.
#if (defined(__GLIBC__) || defined(__linux__)) && !defined(__SANITIZE_THREAD__)
#include <malloc.h>
#define TSG_HAVE_MALLOC_TRIM 1
#endif

#include "check/bsp_checker.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "gofs/checkpoint.h"
#include "profile/profiler.h"
#include "runtime/cluster.h"
#include "runtime/fault_injector.h"
#include "runtime/message_bus.h"
#include "runtime/ready_tracker.h"

namespace tsg {
namespace core_detail {

// Per-partition execution state backing SubgraphContext. Each instance is
// touched only by its partition's worker thread during a round; the
// coordinator reads/drains it between rounds.
class WorkerState {
 public:
  WorkerState(const PartitionedGraph& pg, PartitionId p, MessageBus& bus,
              Pattern pattern, std::size_t planned_timesteps, std::int64_t t0,
              std::int64_t delta)
      : pg_(pg),
        partition_(p),
        bus_(bus),
        pattern_(pattern),
        planned_timesteps_(planned_timesteps),
        t0_(t0),
        delta_(delta) {
    const std::size_t n = pg.partition(p).subgraphs.size();
    sg_inbox.resize(n);
    route_counts.assign(n, 0);
    halted.assign(n, 0);
    halt_timestep.assign(n, 0);
  }

  SubgraphContext makeContext() { return SubgraphContext(*this); }

  // Immutable across the run.
  const PartitionedGraph& pg_;
  PartitionId partition_;
  MessageBus& bus_;
  Pattern pattern_;
  std::size_t planned_timesteps_;
  std::int64_t t0_;
  std::int64_t delta_;

  TiBspProgram* program = nullptr;

  // Per-timestep / per-superstep.
  const PartitionInstanceData* instance = nullptr;
  Timestep timestep = 0;
  std::int32_t superstep = 0;
  ExecPhase phase = ExecPhase::kCompute;

  std::vector<std::vector<Message>> sg_inbox;  // by subgraph local index
  std::vector<std::uint32_t> route_counts;     // inbox-routing scratch
  std::vector<std::uint8_t> halted;
  std::vector<std::uint8_t> halt_timestep;

  // Subgraph currently being served.
  std::uint32_t cur_local = 0;
  const Subgraph* cur_sg = nullptr;

  // Outgoing inter-timestep / merge traffic (drained by the coordinator).
  std::vector<Message> next_msgs;
  std::vector<Message> merge_msgs;

  // Metering accumulators, drained per superstep.
  std::int64_t send_ns = 0;
  std::int64_t load_ns = 0;
  // Load time spent before the round started (a temporally concurrent task
  // copies its instance out of the shared provider first); charged to the
  // next record's load_ns without being subtracted from its compute_ns.
  std::int64_t untimed_load_ns = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t subgraphs_computed = 0;

  // Results.
  std::vector<std::string> outputs;
  std::vector<std::pair<std::string, std::uint64_t>> counter_events;

  // Aggregators: events raised this timestep; snapshot of last timestep's
  // sums (coordinator-maintained; serial temporal mode only).
  std::vector<std::pair<std::string, std::uint64_t>> agg_events;
  std::map<std::string, std::uint64_t> agg_prev;
};

}  // namespace core_detail

using core_detail::WorkerState;

// ---------------------------------------------------------------------------
// SubgraphContext — thin forwarding layer over WorkerState.
// ---------------------------------------------------------------------------

SubgraphId SubgraphContext::subgraphId() const {
  TSG_CHECK(state_.cur_sg != nullptr);
  return state_.cur_sg->id;
}
PartitionId SubgraphContext::partitionId() const { return state_.partition_; }
Timestep SubgraphContext::timestep() const { return state_.timestep; }
std::int32_t SubgraphContext::superstep() const { return state_.superstep; }
ExecPhase SubgraphContext::phase() const { return state_.phase; }
std::size_t SubgraphContext::numTimestepsPlanned() const {
  return state_.planned_timesteps_;
}
std::int64_t SubgraphContext::delta() const { return state_.delta_; }
std::int64_t SubgraphContext::timestampOf(Timestep t) const {
  return state_.t0_ + static_cast<std::int64_t>(t) * state_.delta_;
}

const GraphTemplate& SubgraphContext::graphTemplate() const {
  return state_.pg_.graphTemplate();
}
const PartitionedGraph& SubgraphContext::partitionedGraph() const {
  return state_.pg_;
}
const Subgraph& SubgraphContext::subgraph() const {
  TSG_CHECK(state_.cur_sg != nullptr);
  return *state_.cur_sg;
}
bool SubgraphContext::ownsVertex(VertexIndex v) const {
  return state_.pg_.partitionOfVertex(v) == state_.partition_;
}

namespace {

const PartitionInstanceData& instanceOf(const WorkerState& st) {
  TSG_CHECK_MSG(st.instance != nullptr,
                "instance values are unavailable in the Merge phase");
  return *st.instance;
}

std::uint32_t vertexSlot(const WorkerState& st, VertexIndex v) {
  TSG_CHECK_MSG(st.pg_.partitionOfVertex(v) == st.partition_,
                "vertex not owned by this partition");
  return st.pg_.localIndexOfVertex(v);
}

std::uint32_t edgeSlot(const WorkerState& st, EdgeIndex e) {
  TSG_CHECK_MSG(st.pg_.partitionOfVertex(st.pg_.graphTemplate().edgeSrc(e)) ==
                    st.partition_,
                "edge not owned by this partition");
  return st.pg_.localIndexOfEdge(e);
}

}  // namespace

std::int64_t SubgraphContext::vertexInt64(std::size_t attr,
                                          VertexIndex v) const {
  const auto& inst = instanceOf(state_);
  TSG_CHECK(attr < inst.vertex_cols.size());
  return inst.vertex_cols[attr].asInt64()[vertexSlot(state_, v)];
}
double SubgraphContext::vertexDouble(std::size_t attr, VertexIndex v) const {
  const auto& inst = instanceOf(state_);
  TSG_CHECK(attr < inst.vertex_cols.size());
  return inst.vertex_cols[attr].asDouble()[vertexSlot(state_, v)];
}
bool SubgraphContext::vertexBool(std::size_t attr, VertexIndex v) const {
  const auto& inst = instanceOf(state_);
  TSG_CHECK(attr < inst.vertex_cols.size());
  return inst.vertex_cols[attr].asBool()[vertexSlot(state_, v)] != 0;
}
const std::string& SubgraphContext::vertexString(std::size_t attr,
                                                 VertexIndex v) const {
  const auto& inst = instanceOf(state_);
  TSG_CHECK(attr < inst.vertex_cols.size());
  return inst.vertex_cols[attr].asString()[vertexSlot(state_, v)];
}
const std::vector<std::string>& SubgraphContext::vertexStringList(
    std::size_t attr, VertexIndex v) const {
  const auto& inst = instanceOf(state_);
  TSG_CHECK(attr < inst.vertex_cols.size());
  return inst.vertex_cols[attr].asStringList()[vertexSlot(state_, v)];
}
std::int64_t SubgraphContext::edgeInt64(std::size_t attr, EdgeIndex e) const {
  const auto& inst = instanceOf(state_);
  TSG_CHECK(attr < inst.edge_cols.size());
  return inst.edge_cols[attr].asInt64()[edgeSlot(state_, e)];
}
double SubgraphContext::edgeDouble(std::size_t attr, EdgeIndex e) const {
  const auto& inst = instanceOf(state_);
  TSG_CHECK(attr < inst.edge_cols.size());
  return inst.edge_cols[attr].asDouble()[edgeSlot(state_, e)];
}
bool SubgraphContext::edgeBool(std::size_t attr, EdgeIndex e) const {
  const auto& inst = instanceOf(state_);
  TSG_CHECK(attr < inst.edge_cols.size());
  return inst.edge_cols[attr].asBool()[edgeSlot(state_, e)] != 0;
}

std::span<const Message> SubgraphContext::messages() const {
  TSG_CHECK(state_.cur_local < state_.sg_inbox.size());
  return state_.sg_inbox[state_.cur_local];
}

void SubgraphContext::sendToSubgraph(SubgraphId dst, PayloadBuffer payload) {
  auto& st = state_;
  TSG_CHECK_MSG(st.phase == ExecPhase::kCompute ||
                    st.phase == ExecPhase::kMerge,
                "sendToSubgraph is a Compute/Merge construct");
  ScopedCpuTimer timer(st.send_ns);
  Message msg;
  msg.src = st.cur_sg->id;
  msg.dst = dst;
  msg.payload = std::move(payload);
  ++st.msgs_sent;
  st.bytes_sent += msg.byteSize();
  if (Profiler::enabled()) [[unlikely]] {
    Profiler::global().recordSend(msg.src, dst, st.timestep, msg.byteSize());
  }
  st.bus_.send(st.partition_, st.pg_.partitionOfSubgraph(dst), std::move(msg));
}

void SubgraphContext::sendToNextTimestep(PayloadBuffer payload) {
  sendToSubgraphInNextTimestep(state_.cur_sg->id, std::move(payload));
}

void SubgraphContext::sendToSubgraphInNextTimestep(SubgraphId dst,
                                                   PayloadBuffer payload) {
  auto& st = state_;
  TSG_CHECK_MSG(st.pattern_ == Pattern::kSequentiallyDependent,
                "inter-timestep messaging requires the sequentially "
                "dependent pattern");
  TSG_CHECK(st.phase != ExecPhase::kMerge);
  ScopedCpuTimer timer(st.send_ns);
  Message msg;
  msg.src = st.cur_sg->id;
  msg.dst = dst;
  msg.origin_timestep = st.timestep;
  msg.payload = std::move(payload);
  ++st.msgs_sent;
  st.bytes_sent += msg.byteSize();
  if (Profiler::enabled()) [[unlikely]] {
    Profiler::global().recordSend(msg.src, dst, st.timestep, msg.byteSize());
  }
  st.next_msgs.push_back(std::move(msg));
}

void SubgraphContext::sendMessageToMerge(PayloadBuffer payload) {
  auto& st = state_;
  TSG_CHECK_MSG(st.pattern_ == Pattern::kEventuallyDependent,
                "sendMessageToMerge requires the eventually dependent "
                "pattern");
  TSG_CHECK(st.phase != ExecPhase::kMerge);
  ScopedCpuTimer timer(st.send_ns);
  Message msg;
  msg.src = st.cur_sg->id;
  msg.dst = st.cur_sg->id;
  msg.origin_timestep = st.timestep;
  msg.payload = std::move(payload);
  ++st.msgs_sent;
  st.bytes_sent += msg.byteSize();
  if (Profiler::enabled()) [[unlikely]] {
    Profiler::global().recordSend(msg.src, msg.dst, st.timestep,
                                  msg.byteSize());
  }
  st.merge_msgs.push_back(std::move(msg));
}

void SubgraphContext::voteToHalt() {
  state_.halted[state_.cur_local] = 1;
}

void SubgraphContext::voteToHaltTimestep() {
  TSG_CHECK(state_.phase != ExecPhase::kMerge);
  state_.halt_timestep[state_.cur_local] = 1;
}

void SubgraphContext::output(std::string line) {
  state_.outputs.push_back(std::move(line));
}

void SubgraphContext::addCounter(std::string_view name, std::uint64_t value) {
  state_.counter_events.emplace_back(std::string(name), value);
}

void SubgraphContext::aggregate(std::string_view name, std::uint64_t value) {
  TSG_CHECK(state_.phase != ExecPhase::kMerge);
  state_.agg_events.emplace_back(std::string(name), value);
}

std::uint64_t SubgraphContext::aggregatedU64(std::string_view name) const {
  const auto it = state_.agg_prev.find(std::string(name));
  return it == state_.agg_prev.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// Engine internals.
// ---------------------------------------------------------------------------

namespace {

// Abstracts how a round is executed across partitions: a cluster (spatial
// concurrency) or a sequential loop (inside a temporally concurrent task).
using RoundRunner = std::function<std::vector<Cluster::RoundTiming>(
    const std::function<void(PartitionId)>&)>;

// Barriered rounds on the partition workers. A worker death surfaces as
// fault::RecoveryNeeded out of Cluster::run.
RoundRunner makeClusterRunner(Cluster& cluster) {
  return [&cluster](const std::function<void(PartitionId)>& job) {
    return cluster.run(job);
  };
}

RoundRunner makeSequentialRunner(std::uint32_t num_partitions) {
  return [num_partitions](const std::function<void(PartitionId)>& job) {
    std::vector<Cluster::RoundTiming> timings(num_partitions);
    for (PartitionId p = 0; p < num_partitions; ++p) {
      const std::int64_t start = steadyNowNs();
      job(p);
      timings[p].busy_ns = steadyNowNs() - start;
    }
    return timings;
  };
}

void routeBySubgraphPartition(const PartitionedGraph& pg,
                              std::vector<Message> msgs, MessageBus& bus) {
  std::vector<std::vector<Message>> grouped(pg.numPartitions());
  for (auto& msg : msgs) {
    TSG_CHECK_MSG(msg.dst < pg.numSubgraphs(), "message to unknown subgraph");
    grouped[pg.partitionOfSubgraph(msg.dst)].push_back(std::move(msg));
  }
  for (PartitionId p = 0; p < grouped.size(); ++p) {
    if (!grouped[p].empty()) {
      bus.inject(p, std::move(grouped[p]));
    }
  }
}

// Routes the partition's inbox batches into per-subgraph queues. Runs on the
// partition's worker thread at the start of the round (not on the serial
// coordinator path): first a counting pass so every destination bucket is
// reserve()d exactly once, then a move pass.
// tsg:hot — touches every delivered message once per superstep.
void distributeInbox(WorkerState& st) {
  auto& inbox = st.bus_.inbox(st.partition_);
  if (inbox.empty()) {
    return;
  }
  TraceSpan span("bus", "bus.drain", "partition", st.partition_, "messages",
                 static_cast<std::int64_t>(inbox.size()));
  auto& counts = st.route_counts;  // zeroed outside the hot path
  for (const auto& batch : inbox.batches()) {
    for (const auto& msg : batch) {
      TSG_CHECK(msg.dst != kInvalidSubgraph);
      TSG_CHECK(st.pg_.partitionOfSubgraph(msg.dst) == st.partition_);
      ++counts[st.pg_.subgraphIndexInPartition(msg.dst)];
    }
  }
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] != 0) {
      st.sg_inbox[i].reserve(st.sg_inbox[i].size() + counts[i]);
      counts[i] = 0;
    }
  }
  for (auto& batch : inbox.batches()) {
    for (auto& msg : batch) {
      st.sg_inbox[st.pg_.subgraphIndexInPartition(msg.dst)].push_back(
          std::move(msg));
    }
  }
  inbox.clear();
}

// Drains per-superstep meters from a state into a stats record entry. Load
// time spent before the round (untimed_load_ns) is charged as load but not
// subtracted from compute, because the round's timing never contained it.
void drainPartitionStats(WorkerState& st, PartitionSuperstepStats& ps,
                         const Cluster::RoundTiming& timing) {
  ps.send_ns = std::exchange(st.send_ns, 0);
  ps.load_ns = std::exchange(st.load_ns, 0);
  ps.compute_ns =
      std::max<std::int64_t>(0, timing.busy_ns - ps.send_ns - ps.load_ns);
  ps.load_ns += std::exchange(st.untimed_load_ns, 0);
  ps.sync_ns = timing.sync_ns;
  ps.messages_sent = std::exchange(st.msgs_sent, 0);
  ps.bytes_sent = std::exchange(st.bytes_sent, 0);
  ps.subgraphs_computed = std::exchange(st.subgraphs_computed, 0);
}

bool partitionQuiesced(const WorkerState& st) {
  return std::all_of(st.halted.begin(), st.halted.end(),
                     [](std::uint8_t h) { return h != 0; });
}

struct ExecEnv {
  const PartitionedGraph& pg;
  InstanceProvider& provider;
  const TiBspConfig& config;
  std::vector<std::unique_ptr<WorkerState>>& states;
  MessageBus& bus;
  const RoundRunner& round;
  Cluster* waves;  // non-null (async schedule): supersteps run as waves
  RunStats& stats;
  std::mutex* stats_mutex;  // null when single coordinator thread
  check::BspChecker* checker;  // null when protocol checking is off
};

void commitRecord(ExecEnv& env, SuperstepRecord rec, Timestep counter_t) {
  // Feed the process-wide registry (atomic cells; no lock needed).
  auto& registry = MetricsRegistry::global();
  registry.counter("engine.supersteps").increment();
  // Progress gauges for the live telemetry sampler: which (timestep,
  // superstep) the engine most recently committed. These are what `tsgcli
  // top` and the timeline's phase-aligned curves key on.
  registry.gauge("engine.current_timestep")
      .set(static_cast<std::int64_t>(rec.timestep));
  registry.gauge("engine.current_superstep")
      .set(static_cast<std::int64_t>(rec.superstep));
  // Phase-duration distributions across (superstep × partition) samples —
  // the spread the straggler analysis quantifies (p50/p99/max).
  auto& h_compute = registry.histogram("engine.superstep_compute_ns");
  auto& h_send = registry.histogram("engine.superstep_send_ns");
  auto& h_sync = registry.histogram("engine.superstep_sync_ns");
  for (PartitionId p = 0; p < rec.parts.size(); ++p) {
    const auto& ps = rec.parts[p];
    h_compute.record(static_cast<std::uint64_t>(std::max<std::int64_t>(
        0, ps.compute_ns)));
    h_send.record(
        static_cast<std::uint64_t>(std::max<std::int64_t>(0, ps.send_ns)));
    h_sync.record(
        static_cast<std::uint64_t>(std::max<std::int64_t>(0, ps.sync_ns)));
    if (ps.subgraphs_computed != 0) {
      registry.counter("engine.subgraphs_computed", static_cast<std::int32_t>(p))
          .add(ps.subgraphs_computed);
    }
    if (ps.messages_sent != 0) {
      registry.counter("engine.messages_sent", static_cast<std::int32_t>(p))
          .add(ps.messages_sent);
    }
  }

  // Flush counters alongside the record; the lock covers temporally
  // concurrent tasks appending out of order.
  std::unique_lock<std::mutex> lock;
  if (env.stats_mutex != nullptr) {
    lock = std::unique_lock(*env.stats_mutex);
  }
  for (auto& st_ptr : env.states) {
    auto& st = *st_ptr;
    for (const auto& [name, value] : st.counter_events) {
      env.stats.addCounter(name, counter_t, st.partition_, value);
    }
    st.counter_events.clear();
  }
  env.stats.addSuperstep(std::move(rec));
}

// Partition p's share of superstep s — the one per-partition superstep body
// behind BSP rounds, async wave tasks and the merge phase. Loads the
// instance at superstep 0 of a compute phase, routes the inbox, then runs
// compute (or merge) on every active subgraph in local order; one thread
// per partition replays the same send sequence under every schedule.
void runPartitionSuperstep(ExecEnv& env, PartitionId p, Timestep t,
                           std::int32_t s, ExecPhase phase) {
  auto& st = *env.states[p];
  st.superstep = s;
  const bool merge = phase == ExecPhase::kMerge;
  auto& inj = fault::FaultInjector::global();
  if (env.checker != nullptr) {
    env.checker->enterCompute(p);
  }
  if (!merge && s == 0) {
    if (inj.armed() &&
        inj.fire(fault::Site::kSliceLoad, p, t, fault::Action::kKill))
        [[unlikely]] {
      throw fault::WorkerFault(p, t, fault::Site::kSliceLoad);
    }
    TraceSpan load_span("gofs", "gofs.instance_load", "partition", p, "t", t);
    st.instance = &env.provider.instanceFor(p, t);
    st.load_ns += env.provider.takeLoadNs(p);
  }
  distributeInbox(st);
  if (!merge && inj.armed()) [[unlikely]] {
    if (const auto spec = inj.fire(fault::Site::kCompute, p, t)) {
      if (spec->action == fault::Action::kKill) {
        throw fault::WorkerFault(p, t, fault::Site::kCompute);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(spec->delay_us));
    }
  }
  // Incremental skip (streaming runs): a message-free subgraph whose
  // instance values did not change this timestep, and whose program opted
  // in via skippableWhenClean(), halts without computing. Only legal at
  // superstep 0 of a non-first timestep — later supersteps are driven by
  // messages alone, the first timestep has no previous sealed instance to
  // be clean against, and merge phases are not timestep compute.
  const bool may_skip = !merge && s == 0 && env.config.stream != nullptr &&
                        t > env.config.first_timestep &&
                        st.program->skippableWhenClean();
  const Partition& part = env.pg.partition(p);
  std::uint64_t skipped = 0;
  for (std::uint32_t i = 0; i < part.subgraphs.size(); ++i) {
    const bool has_msgs = !st.sg_inbox[i].empty();
    const bool active = s == 0 || has_msgs || st.halted[i] == 0;
    if (!active) {
      continue;
    }
    if (may_skip && !has_msgs &&
        !env.config.stream->subgraphDirty(t, part.subgraphs[i].id)) {
      st.halted[i] = 1;
      ++skipped;
      continue;
    }
    if (env.checker != nullptr) {
      env.checker->onComputeUnit(p, part.subgraphs[i].id, st.halted[i] != 0,
                                 s == 0 || has_msgs);
    }
    st.halted[i] = 0;  // must re-vote to stay halted
    st.cur_local = i;
    st.cur_sg = &part.subgraphs[i];
    auto ctx = st.makeContext();
    const bool profiled = Profiler::enabled();
    const std::int64_t unit_start = profiled ? steadyNowNs() : 0;
    if (merge) {
      st.program->merge(ctx);
    } else {
      st.program->compute(ctx);
    }
    if (profiled) [[unlikely]] {
      Profiler::global().recordCompute(st.cur_sg->id, t,
                                       steadyNowNs() - unit_start);
    }
    ++st.subgraphs_computed;
    st.sg_inbox[i].clear();
  }
  if (skipped > 0) {
    MetricsRegistry::global()
        .counter("engine.subgraphs_skipped_incremental")
        .add(skipped);
  }
  if (!merge && inj.armed() &&
      inj.fire(fault::Site::kBarrier, p, t, fault::Action::kKill))
      [[unlikely]] {
    // Dies with work done but the compute phase still open: the checker
    // would see an unpaired round if recovery didn't re-pair.
    throw fault::WorkerFault(p, t, fault::Site::kBarrier);
  }
  if (env.checker != nullptr) {
    env.checker->exitCompute(p);
  }
}

// Seals superstep s once every partition's share ran — the one tail behind
// the BSP barrier and the async wave seal: drains the meters into a record,
// delivers the bus and commits the record. `timings` holds each partition's
// busy and sync time (zero rows for partitions a wave skipped). An injected
// delivery drop clears the fabric and unwinds into recovery instead.
MessageBus::DeliveryStats sealSuperstep(
    ExecEnv& env, Timestep t, std::int32_t s, ExecPhase phase,
    const std::vector<Cluster::RoundTiming>& timings) {
  const auto k = static_cast<std::uint32_t>(env.states.size());
  const bool merge = phase == ExecPhase::kMerge;
  SuperstepRecord rec;
  rec.timestep = t;
  rec.superstep = s;
  rec.is_merge_phase = merge;
  rec.parts.resize(k);
  for (PartitionId p = 0; p < k; ++p) {
    drainPartitionStats(*env.states[p], rec.parts[p], timings[p]);
  }
  auto& inj = fault::FaultInjector::global();
  if (!merge && inj.armed()) [[unlikely]] {
    if (const auto spec =
            inj.fire(fault::Site::kDeliver, kInvalidPartition, t)) {
      if (spec->action == fault::Action::kDrop) {
        // The batch is lost in transit: clear the fabric and unwind into
        // the recovery path (the checker forgives via onReset).
        env.bus.clearAll();
        commitRecord(env, std::move(rec), t);
        throw fault::RecoveryNeeded("delivery batch dropped at timestep " +
                                    std::to_string(t) + " superstep " +
                                    std::to_string(s));
      }
      // Transient delay: the barrier stretches, delivery then proceeds.
      std::this_thread::sleep_for(std::chrono::microseconds(spec->delay_us));
      MetricsRegistry::global().counter("fault.delivery_delays").increment();
    }
  }
  const auto delivery = env.bus.deliver();
  rec.delivered_messages = delivery.messages;
  rec.delivered_bytes = delivery.bytes;
  rec.cross_partition_messages = delivery.cross_partition_messages;
  rec.cross_partition_bytes = delivery.cross_partition_bytes;
  if (!merge) {
    traceCounter("bus.delivered_messages",
                 static_cast<std::int64_t>(delivery.messages));
    traceCounter("bus.cross_partition_bytes",
                 static_cast<std::int64_t>(delivery.cross_partition_bytes));
  }
  commitRecord(env, std::move(rec), t);
  return delivery;
}

void warnSuperstepCap(Timestep t, std::int32_t s, ExecPhase phase) {
  if (phase == ExecPhase::kMerge) {
    TSG_LOG(Warn) << "merge phase hit the superstep cap (" << s
                  << "); aborting its BSP";
  } else {
    TSG_LOG(Warn) << "timestep " << t << " hit the superstep cap (" << s
                  << "); aborting its BSP";
  }
}

// ---------------------------------------------------------------------------
// Dependency-driven (async) schedule — wave execution of one BSP phase.
// ---------------------------------------------------------------------------
//
// A wave is the async analogue of a superstep: only partitions the
// ReadyTracker deems eligible run, as whole (partition, superstep) tasks on
// Cluster's steal-deques. The last finisher seals the wave — delivery,
// record commit, termination check and readiness advance all happen there,
// exclusively, replacing the global barrier + coordinator rendezvous.
// Tasks and seals run the same body and tail as BSP rounds, so the send
// sequence (and therefore every digest) is identical to BSP.
class WaveDriver final : public Cluster::Driver {
 public:
  WaveDriver(ExecEnv& env, Timestep t, ExecPhase phase)
      : env_(env),
        t_(t),
        phase_(phase),
        tracker_(static_cast<std::int32_t>(env.states.size())),
        timings_(env.states.size()),
        m_skips_(
            MetricsRegistry::global().counter("cluster.barrier_skips")) {
    tracker_.beginTimestep();
  }

  [[nodiscard]] std::int32_t wavesRun() const { return waves_run_; }

  void runTask(PartitionId p, const Cluster::TaskInfo& info) override {
    const std::int64_t cpu_start = threadCpuNowNs();
    runPartitionSuperstep(env_, p, t_, info.wave, phase_);
    timings_[p].busy_ns = threadCpuNowNs() - cpu_start;
    timings_[p].sync_ns = info.ready_wait_ns;
  }

  std::vector<PartitionId> sealWave(std::int32_t s) override {
    const auto k = static_cast<std::uint32_t>(env_.states.size());
    (void)sealSuperstep(env_, t_, s, phase_, timings_);
    std::fill(timings_.begin(), timings_.end(), Cluster::RoundTiming{});
    waves_run_ = s + 1;

    // Readiness: what the bus just put in each inbox is the ground-truth
    // inbound set for wave s+1 (the conservation accounting, per
    // destination).
    for (PartitionId p = 0; p < k; ++p) {
      tracker_.recordQuiesce(p, partitionQuiesced(*env_.states[p]));
      tracker_.recordDelivery(
          p, static_cast<std::uint64_t>(env_.bus.inbox(p).size()));
    }
    if (tracker_.terminated()) {
      return {};
    }
    if (s + 1 >= env_.config.max_supersteps_per_timestep) {
      warnSuperstepCap(t_, s + 1, phase_);
      env_.bus.clearAll();
      return {};
    }
    std::vector<PartitionId> next = tracker_.advance();
    if (next.size() < k) {
      m_skips_.add(k - static_cast<std::uint32_t>(next.size()));
      if (env_.checker != nullptr) {
        // Cross-check every skip against the bus: `next` is ascending, so
        // a two-pointer sweep finds the complement.
        std::size_t j = 0;
        for (PartitionId p = 0; p < k; ++p) {
          if (j < next.size() && next[j] == p) {
            ++j;
            continue;
          }
          env_.checker->onSkipRound(
              p, static_cast<std::uint64_t>(env_.bus.inbox(p).size()));
        }
      }
    }
    if (env_.checker != nullptr) {
      env_.checker->beginSuperstep(s + 1);
    }
    return next;
  }

 private:
  ExecEnv& env_;
  Timestep t_;
  ExecPhase phase_;
  ReadyTracker tracker_;
  std::vector<Cluster::RoundTiming> timings_;
  std::int32_t waves_run_ = 0;
  MetricsRegistry::Counter& m_skips_;
};

// One barriered superstep: every partition runs its share, then the
// coordinator seals. Returns whether the phase continues.
bool runBarrieredSuperstep(ExecEnv& env, Timestep t, std::int32_t s,
                           ExecPhase phase) {
  if (env.checker != nullptr) {
    env.checker->beginSuperstep(s);
  }
  const auto timings = env.round([&env, t, s, phase](PartitionId p) {
    runPartitionSuperstep(env, p, t, s, phase);
  });
  const bool all_halted = std::all_of(
      env.states.begin(), env.states.end(),
      [](const auto& st_ptr) { return partitionQuiesced(*st_ptr); });
  const auto delivery = sealSuperstep(env, t, s, phase, timings);
  if (all_halted && delivery.messages == 0) {
    return false;
  }
  if (s + 1 >= env.config.max_supersteps_per_timestep) {
    warnSuperstepCap(t, s + 1, phase);
    env.bus.clearAll();
    return false;
  }
  return true;
}

// Runs one BSP phase (a timestep's compute or the merge) to quiescence and
// returns how many supersteps it took. The schedules differ only here:
// barriered rounds until every subgraph halted with nothing delivered, or
// dependency-driven waves that seal themselves.
std::int32_t runSupersteps(ExecEnv& env, Timestep t, ExecPhase phase) {
  if (env.waves != nullptr) {
    if (env.checker != nullptr) {
      env.checker->beginSuperstep(0);
    }
    WaveDriver driver(env, t, phase);
    std::vector<PartitionId> all(env.states.size());
    std::iota(all.begin(), all.end(), PartitionId{0});
    env.waves->runWaves(driver, all, /*first_wave=*/0);
    return driver.wavesRun();
  }
  std::int32_t s = 0;
  bool more = true;
  while (more) {
    if (phase == ExecPhase::kMerge) {
      TraceSpan span("tibsp", "tibsp.merge_superstep", "s", s);
      more = runBarrieredSuperstep(env, t, s, phase);
    } else {
      TraceSpan span("tibsp", "tibsp.superstep", "t", t, "s", s);
      more = runBarrieredSuperstep(env, t, s, phase);
    }
    ++s;
  }
  return s;
}

// Resets every partition for a new BSP phase and injects its seed traffic
// (inter-timestep, application-input or merge messages) before superstep 0.
void beginPhase(ExecEnv& env, Timestep t, ExecPhase phase,
                std::vector<Message> seed_msgs) {
  if (env.checker != nullptr) {
    env.checker->beginTimestep(t);
  }
  for (auto& st_ptr : env.states) {
    auto& st = *st_ptr;
    st.timestep = t;
    st.superstep = 0;
    st.phase = phase;
    st.instance = nullptr;
    std::fill(st.halted.begin(), st.halted.end(), 0);
    std::fill(st.halt_timestep.begin(), st.halt_timestep.end(), 0);
  }
  routeBySubgraphPartition(env.pg, std::move(seed_msgs), env.bus);
}

// EndOfTimestep hook: every subgraph, one round (metered like a superstep).
// Runs as a barriered round under either schedule (all partitions
// participate regardless of halt state). Returns whether every subgraph
// voted to halt the timestep loop.
bool runEndOfTimestep(ExecEnv& env, Timestep t, std::int32_t s) {
  const auto k = static_cast<std::uint32_t>(env.states.size());
  TraceSpan eot_span("tibsp", "tibsp.end_of_timestep", "t", t);
  if (env.checker != nullptr) {
    env.checker->beginSuperstep(s);
  }
  for (auto& st_ptr : env.states) {
    st_ptr->superstep = s;
    st_ptr->phase = ExecPhase::kEndOfTimestep;
  }
  const auto& eot_timings = env.round([&env](PartitionId p) {
    auto& st = *env.states[p];
    if (env.checker != nullptr) {
      env.checker->enterCompute(p);
    }
    const Partition& part = env.pg.partition(p);
    for (std::uint32_t i = 0; i < part.subgraphs.size(); ++i) {
      st.cur_local = i;
      st.cur_sg = &part.subgraphs[i];
      auto ctx = st.makeContext();
      st.program->endOfTimestep(ctx);
    }
    if (env.checker != nullptr) {
      env.checker->exitCompute(p);
    }
  });
  SuperstepRecord eot_rec;
  eot_rec.timestep = t;
  eot_rec.superstep = s;
  eot_rec.parts.resize(k);
  bool all_halt_timestep = true;
  for (PartitionId p = 0; p < k; ++p) {
    auto& st = *env.states[p];
    drainPartitionStats(st, eot_rec.parts[p], eot_timings[p]);
    all_halt_timestep =
        all_halt_timestep &&
        std::all_of(st.halt_timestep.begin(), st.halt_timestep.end(),
                    [](std::uint8_t h) { return h != 0; });
  }
  commitRecord(env, std::move(eot_rec), t);
  return all_halt_timestep;
}

// One full BSP over the instance at timestep t. seed_msgs are injected
// before superstep 0 (inter-timestep or application-input traffic).
// Returns whether every subgraph voted to halt the timestep loop.
bool runOneTimestep(ExecEnv& env, Timestep t, std::vector<Message> seed_msgs) {
  TraceSpan timestep_span("tibsp", "tibsp.timestep", "t", t);
  beginPhase(env, t, ExecPhase::kCompute, std::move(seed_msgs));
  const std::int32_t supersteps = runSupersteps(env, t, ExecPhase::kCompute);
  return runEndOfTimestep(env, t, supersteps);
}

// The Merge BSP of the eventually dependent pattern (§II-D). Runs over the
// subgraph templates; instance values are unavailable.
void runMergePhase(ExecEnv& env, std::vector<Message> merge_pool,
                   Timestep stats_timestep) {
  TraceSpan merge_span("tibsp", "tibsp.merge");
  beginPhase(env, stats_timestep, ExecPhase::kMerge, std::move(merge_pool));
  (void)runSupersteps(env, stats_timestep, ExecPhase::kMerge);
}

// Synchronized maintenance pause: the structural stand-in for the paper's
// forced System.gc() every 20 timesteps (§IV-D). Each partition trims its
// allocator arenas; the round is recorded so it shows in per-timestep time.
void runMaintenance(ExecEnv& env, Timestep t) {
  TraceSpan span("tibsp", "tibsp.maintenance", "t", t);
  const auto k = static_cast<std::uint32_t>(env.states.size());
  const auto& timings = env.round([&env](PartitionId p) {
    if (env.checker != nullptr) {
      env.checker->enterCompute(p);
    }
#if defined(TSG_HAVE_MALLOC_TRIM)
    malloc_trim(0);
#endif
    if (env.checker != nullptr) {
      env.checker->exitCompute(p);
    }
  });
  SuperstepRecord rec;
  rec.timestep = t;
  rec.superstep = -1;  // marks a maintenance round
  rec.parts.resize(k);
  for (PartitionId p = 0; p < k; ++p) {
    rec.parts[p].compute_ns = timings[p].busy_ns;
    rec.parts[p].sync_ns = timings[p].sync_ns;
  }
  commitRecord(env, std::move(rec), t);
}

// One worker state per partition over `bus`, each served by a fresh program
// from the factory.
struct Workers {
  std::vector<std::unique_ptr<TiBspProgram>> programs;
  std::vector<std::unique_ptr<WorkerState>> states;
};

Workers makeWorkers(const PartitionedGraph& pg, MessageBus& bus,
                    const TiBspConfig& config, std::size_t planned,
                    const InstanceProvider& provider,
                    const ProgramFactory& factory) {
  Workers w;
  for (PartitionId p = 0; p < pg.numPartitions(); ++p) {
    w.programs.push_back(factory(p));
    TSG_CHECK(w.programs.back() != nullptr);
    w.states.push_back(std::make_unique<WorkerState>(
        pg, p, bus, config.pattern, planned, provider.t0(), provider.delta()));
    w.states.back()->program = w.programs.back().get();
  }
  return w;
}

// Protocol checker for one bus (null when checking is off). Registry
// reconciliation is only valid while no other bus is live.
std::unique_ptr<check::BspChecker> attachChecker(MessageBus& bus,
                                                 std::uint32_t k,
                                                 bool async_mode,
                                                 bool reconcile) {
  if (!check::enabled()) {
    return nullptr;
  }
  auto checker = std::make_unique<check::BspChecker>(k);
  if (reconcile) {
    checker->enableRegistryReconciliation();
  }
  if (async_mode) {
    checker->enableAsyncMode();
  }
  bus.attachChecker(checker.get());
  return checker;
}

void detachChecker(MessageBus& bus, check::BspChecker* checker) {
  if (checker != nullptr) {
    checker->endRun();
    bus.attachChecker(nullptr);
  }
}

}  // namespace

TiBspEngine::TiBspEngine(const PartitionedGraph& pg,
                         InstanceProvider& provider)
    : pg_(pg), provider_(provider) {}

TiBspResult TiBspEngine::run(const ProgramFactory& factory,
                             const TiBspConfig& config) {
  const Timestep first = config.first_timestep;
  TSG_CHECK(first >= 0);
  const auto available =
      static_cast<std::int64_t>(provider_.numInstances()) - first;
  TSG_CHECK_MSG(available >= 0, "first_timestep beyond available instances");
  const auto count = static_cast<std::int32_t>(
      config.num_timesteps < 0
          ? available
          : std::min<std::int64_t>(config.num_timesteps, available));
  const auto k = pg_.numPartitions();

  TiBspResult result;
  result.stats = RunStats(k);
  Tracer::setCurrentThreadName("coordinator");
  TraceSpan run_span("tibsp", "tibsp.run", "timesteps", count);
  if (Profiler::enabled()) {
    Profiler::global().beginRun(pg_, first, count);
  }
  const auto metrics_before = MetricsRegistry::global().snapshot();
  const auto hists_before = MetricsRegistry::global().histogramSnapshot();
  Stopwatch wall;

  const bool use_async = config.schedule == Schedule::kAsync;
  const bool concurrent =
      config.temporal_mode == TemporalMode::kConcurrent &&
      config.pattern != Pattern::kSequentiallyDependent;

  if (!concurrent) {
    Cluster cluster(k);
    const RoundRunner round = makeClusterRunner(cluster);
    MessageBus bus(k);
    Workers workers = makeWorkers(pg_, bus, config,
                                  static_cast<std::size_t>(count), provider_,
                                  factory);
    auto& programs = workers.programs;
    auto& states = workers.states;
    // Protocol checking: one checker per run, attached to the sole bus.
    const auto checker = attachChecker(bus, k, use_async, /*reconcile=*/true);
    ExecEnv env{pg_,
                provider_,
                config,
                states,
                bus,
                round,
                use_async ? &cluster : nullptr,
                result.stats,
                nullptr,
                checker.get()};

    std::vector<Message> pending_next;
    std::vector<Message> merge_pool;
    CheckpointStore* const store = config.checkpoint_store;
    std::int32_t recoveries = 0;

    // Snapshot the consistent cut after `completed` finished (workers parked,
    // fabric empty): program state, outputs, carried messages, aggregates.
    const auto saveCheckpoint = [&](Timestep completed,
                                    std::int32_t executed) {
      TraceSpan ckpt_span("tibsp", "tibsp.checkpoint", "t", completed);
      Checkpoint ckpt;
      ckpt.timestep = completed;
      ckpt.timesteps_executed = executed;
      ckpt.partitions.resize(k);
      for (PartitionId p = 0; p < k; ++p) {
        BinaryWriter w;
        states[p]->program->saveState(w);
        ckpt.partitions[p].program_state = w.takeBuffer();
        ckpt.partitions[p].outputs = states[p]->outputs;
      }
      ckpt.pending_next = pending_next;
      ckpt.merge_pool = merge_pool;
      ckpt.aggregates = states[0]->agg_prev;
      const Status saved = store->save(ckpt);
      TSG_CHECK_MSG(saved.isOk(), saved.toString());
      MetricsRegistry::global().counter("engine.checkpoints").increment();
    };

    std::int32_t i = 0;
    bool stop = false;   // While-mode requested an early end
    bool done = false;
    if (store != nullptr) {
      TSG_CHECK_MSG(config.checkpoint_period > 0,
                    "checkpoint_period must be >= 1");
      // Initial checkpoint (pristine programs, timestep first-1): every
      // recovery uniformly loads a checkpoint — no "restart from scratch"
      // special case, which would silently mis-restore stateful programs.
      saveCheckpoint(first - 1, 0);
    }
    while (!done) {
      try {
        while (i < count && !stop) {
          const Timestep t = first + i;
          // Streaming: block until timestep t is sealed. A false return
          // means the source ended early — finish with what we have.
          // Re-entry after a fault rollback is safe: already-sealed
          // timesteps return true immediately.
          if (config.stream != nullptr && !config.stream->awaitTimestep(t)) {
            break;
          }
          if (config.maintenance_period > 0 && i > 0 &&
              i % config.maintenance_period == 0) {
            runMaintenance(env, t);
          }
          std::vector<Message> seed;
          if (config.pattern == Pattern::kSequentiallyDependent) {
            seed = std::move(pending_next);
            pending_next.clear();
            if (i == 0) {
              seed.insert(seed.end(), config.input_messages.begin(),
                          config.input_messages.end());
            }
          } else {
            seed = config.input_messages;  // every instance gets the inputs
          }
          const bool all_halt_timestep =
              runOneTimestep(env, t, std::move(seed));
          ++result.timesteps_executed;

          std::map<std::string, std::uint64_t> agg_now;
          for (auto& st_ptr : states) {
            auto& st = *st_ptr;
            std::move(st.next_msgs.begin(), st.next_msgs.end(),
                      std::back_inserter(pending_next));
            st.next_msgs.clear();
            std::move(st.merge_msgs.begin(), st.merge_msgs.end(),
                      std::back_inserter(merge_pool));
            st.merge_msgs.clear();
            for (const auto& [name, value] : st.agg_events) {
              agg_now[name] += value;
            }
            st.agg_events.clear();
          }
          for (auto& st_ptr : states) {
            st_ptr->agg_prev = agg_now;
          }

          if (config.pattern == Pattern::kSequentiallyDependent &&
              config.while_mode && all_halt_timestep &&
              pending_next.empty()) {
            stop = true;
          }
          if (store != nullptr &&
              ((i + 1) % config.checkpoint_period == 0 || i == count - 1 ||
               stop)) {
            saveCheckpoint(t, result.timesteps_executed);
          }
          ++i;
        }

        if (config.pattern == Pattern::kEventuallyDependent) {
          runMergePhase(env, std::move(merge_pool), first + count);
        }
        done = true;
      } catch (const fault::RecoveryNeeded& fault_cause) {
        // Rollback: respawn dead workers, forgive in-flight traffic, reload
        // every partition from the newest checkpoint (all partitions mutate
        // mid-timestep, so a partial rollback would be inconsistent), then
        // resume from the timestep after the cut.
        TSG_CHECK_MSG(store != nullptr,
                      std::string("worker fault without a checkpoint "
                                  "store: ") +
                          fault_cause.what());
        ++recoveries;
        TSG_CHECK_MSG(recoveries <= config.max_recoveries,
                      "recovery limit exhausted; last fault: " +
                          std::string(fault_cause.what()));
        TraceSpan rec_span("tibsp", "tibsp.recovery");
        TSG_LOG(Warn) << "recovering from fault (" << recoveries << "/"
                      << config.max_recoveries
                      << "): " << fault_cause.what();
        MetricsRegistry::global().counter("engine.recoveries").increment();
        if (checker != nullptr) {
          checker->onRecovery();
        }
        bus.clearAll();
        cluster.respawnDead();

        auto loaded = store->loadLatest();
        TSG_CHECK_MSG(loaded.isOk(), loaded.status().toString());
        Checkpoint ckpt = std::move(loaded).value();
        TSG_CHECK(ckpt.partitions.size() == k);
        for (PartitionId p = 0; p < k; ++p) {
          programs[p] = factory(p);
          TSG_CHECK(programs[p] != nullptr);
          auto& st = *states[p];
          st.program = programs[p].get();
          BinaryReader state_reader(ckpt.partitions[p].program_state);
          const Status restored = st.program->loadState(state_reader);
          TSG_CHECK_MSG(restored.isOk(), restored.toString());
          st.outputs = std::move(ckpt.partitions[p].outputs);
          st.next_msgs.clear();
          st.merge_msgs.clear();
          st.agg_events.clear();
          st.counter_events.clear();
          for (auto& q : st.sg_inbox) {
            q.clear();
          }
          st.send_ns = 0;
          st.load_ns = 0;
          st.untimed_load_ns = 0;
          st.msgs_sent = 0;
          st.bytes_sent = 0;
          st.subgraphs_computed = 0;
          st.agg_prev = ckpt.aggregates;
          st.instance = nullptr;
        }
        pending_next = std::move(ckpt.pending_next);
        merge_pool = std::move(ckpt.merge_pool);
        result.timesteps_executed = ckpt.timesteps_executed;
        if (Profiler::enabled()) {
          // Rolled-back timesteps re-run from the cut; drop their rows so
          // attributed costs are not double-counted on the replay.
          Profiler::global().resetRowsFrom(ckpt.timestep + 1);
        }
        i = (ckpt.timestep - first) + 1;
        stop = false;
      }
    }
    detachChecker(bus, checker.get());
    for (const auto& st_ptr : states) {
      result.outputs.insert(result.outputs.end(), st_ptr->outputs.begin(),
                            st_ptr->outputs.end());
    }
  } else {
    // Temporal concurrency: each timestep runs as one task with its own
    // states, programs and bus; spatial execution inside a task is
    // sequential. Merge (if any) runs afterwards on a spatial cluster.
    // Recovery is a serial-mode feature: concurrent tasks have no cluster
    // to respawn and independent timesteps can simply be re-run whole.
    TSG_CHECK_MSG(config.checkpoint_store == nullptr,
                  "checkpointing requires TemporalMode::kSerial");
    // Streaming seals timesteps in order; concurrent tasks would race
    // ahead of the watermark.
    TSG_CHECK_MSG(config.stream == nullptr,
                  "streaming requires TemporalMode::kSerial");
    std::mutex stats_mutex;
    std::vector<std::vector<std::string>> outputs_by_t(
        static_cast<std::size_t>(count));
    std::vector<std::vector<Message>> merge_by_t(
        static_cast<std::size_t>(count));
    std::mutex provider_mutex;  // providers are not concurrent-safe

    // A private provider view is not available per task; serialize access
    // and copy the data out under the lock.
    ThreadPool pool(k);
    const auto run_timestep_task = [&](std::size_t i) {
      const Timestep t = first + static_cast<Timestep>(i);
      MessageBus bus(k);
      Workers workers = makeWorkers(pg_, bus, config,
                                    static_cast<std::size_t>(count),
                                    provider_, factory);
      auto& states = workers.states;
      // Copy this timestep's partition data under the provider lock, then
      // serve it from the copy. The load happens before the task's timed
      // rounds, so it is charged to superstep 0 as untimed load.
      std::vector<PartitionInstanceData> local_data(k);
      {
        std::lock_guard lock(provider_mutex);
        for (PartitionId p = 0; p < k; ++p) {
          local_data[p] = provider_.instanceFor(p, t);
          states[p]->untimed_load_ns = provider_.takeLoadNs(p);
        }
      }
      struct LocalProvider final : InstanceProvider {
        std::vector<PartitionInstanceData>* data;
        std::size_t n;
        std::int64_t t0_v, delta_v;
        std::size_t numInstances() const override { return n; }
        std::int64_t t0() const override { return t0_v; }
        std::int64_t delta() const override { return delta_v; }
        const PartitionInstanceData& instanceFor(PartitionId p,
                                                 Timestep) override {
          return (*data)[p];
        }
        std::int64_t takeLoadNs(PartitionId) override { return 0; }
      };
      LocalProvider local;
      local.data = &local_data;
      local.n = provider_.numInstances();
      local.t0_v = provider_.t0();
      local.delta_v = provider_.delta();

      // Per-task checker: several buses are live at once, so no registry
      // reconciliation (the process-wide counters mix all tasks' traffic).
      const auto task_checker =
          attachChecker(bus, k, /*async_mode=*/false, /*reconcile=*/false);
      const RoundRunner round = makeSequentialRunner(k);
      ExecEnv env{pg_,
                  local,
                  config,
                  states,
                  bus,
                  round,
                  /*waves=*/nullptr,
                  result.stats,
                  &stats_mutex,
                  task_checker.get()};
      (void)runOneTimestep(env, t, config.input_messages);
      detachChecker(bus, task_checker.get());

      auto& out = outputs_by_t[i];
      for (auto& st_ptr : states) {
        auto& st = *st_ptr;
        std::move(st.outputs.begin(), st.outputs.end(),
                  std::back_inserter(out));
        std::move(st.merge_msgs.begin(), st.merge_msgs.end(),
                  std::back_inserter(merge_by_t[i]));
        TSG_CHECK_MSG(st.next_msgs.empty(),
                      "inter-timestep messages in a temporally concurrent run");
        TSG_CHECK_MSG(st.agg_events.empty(),
                      "aggregators require the serial temporal mode");
      }
    };
    pool.parallelFor(static_cast<std::size_t>(count), run_timestep_task);
    result.timesteps_executed = count;
    for (auto& out : outputs_by_t) {
      std::move(out.begin(), out.end(), std::back_inserter(result.outputs));
    }

    if (config.pattern == Pattern::kEventuallyDependent) {
      std::vector<Message> merge_pool;
      for (auto& msgs : merge_by_t) {
        std::move(msgs.begin(), msgs.end(), std::back_inserter(merge_pool));
      }
      Cluster cluster(k);
      const RoundRunner round = makeClusterRunner(cluster);
      MessageBus bus(k);
      Workers workers = makeWorkers(pg_, bus, config,
                                    static_cast<std::size_t>(count),
                                    provider_, factory);
      auto& states = workers.states;
      const auto merge_checker =
          attachChecker(bus, k, use_async, /*reconcile=*/false);
      ExecEnv env{pg_,
                  provider_,
                  config,
                  states,
                  bus,
                  round,
                  use_async ? &cluster : nullptr,
                  result.stats,
                  nullptr,
                  merge_checker.get()};
      runMergePhase(env, std::move(merge_pool), first + count);
      detachChecker(bus, merge_checker.get());
      for (const auto& st_ptr : states) {
        result.outputs.insert(result.outputs.end(), st_ptr->outputs.begin(),
                              st_ptr->outputs.end());
      }
    }
  }

  result.stats.setWallClockNs(wall.elapsedNs());
  result.stats.setMetrics(
      snapshotDelta(metrics_before, MetricsRegistry::global().snapshot()));
  result.stats.setHistograms(histogramDelta(
      hists_before, MetricsRegistry::global().histogramSnapshot()));
  if (Profiler::enabled()) {
    result.stats.setAttribution(Profiler::global().take());
  }
  return result;
}

}  // namespace tsg
