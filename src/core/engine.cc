#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>

// Under ThreadSanitizer or AddressSanitizer malloc is the sanitizer's
// allocator, so glibc's arenas are never set up; concurrent first calls to
// malloc_trim then race on glibc's lazy initialization and can crash the
// maintenance wave.
#if (defined(__GLIBC__) || defined(__linux__)) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#include <malloc.h>
#define TSG_HAVE_MALLOC_TRIM 1
#endif

#include "check/bsp_checker.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
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
// touched only by the thread running its partition's task during a wave;
// the wave's seal and the coordinator read/drain it between waves.
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

  // The one cost meter: the unit being served (a compute, merge or
  // end-of-timestep call of cur_sg) counts into `unit`; closeUnit() folds
  // it into the superstep's costs and, profiled, queues it and its sends
  // for the seal to charge to the run's attribution table.
  SubgraphCosts unit;
  SubgraphCosts superstep_costs;
  bool profiled = false;
  std::vector<std::pair<SubgraphId, SubgraphCosts>> pending_units;
  std::vector<std::pair<SubgraphId, std::uint64_t>> pending_inbound;  // dst

  // tsg:hot — once per message send.
  void meterSend(SubgraphId dst, std::uint64_t bytes) {
    ++unit.msgs_out;
    unit.bytes_out += bytes;
    if (profiled) [[unlikely]] {
      pending_inbound.emplace_back(dst, bytes);
    }
  }

  // Ends cur_sg's unit; `compute_ns` is its timed span (0 unprofiled).
  void closeUnit(std::int64_t compute_ns) {
    unit.compute_ns = compute_ns;
    superstep_costs += unit;
    if (profiled) [[unlikely]] {
      pending_units.emplace_back(cur_sg->id, unit);
    }
    unit = SubgraphCosts{};
  }

  // Results.
  std::vector<std::string> outputs;
  std::vector<std::pair<std::string, std::uint64_t>> counter_events;

  // Aggregators: events raised this timestep; snapshot of last timestep's
  // sums (coordinator-maintained).
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
double SubgraphContext::edgeDouble(std::size_t attr, EdgeIndex e) const {
  const auto& inst = instanceOf(state_);
  TSG_CHECK(attr < inst.edge_cols.size());
  return inst.edge_cols[attr].asDouble()[edgeSlot(state_, e)];
}
const AttributeColumn& SubgraphContext::edgeColumn(std::size_t attr) const {
  const auto& inst = instanceOf(state_);
  TSG_CHECK(attr < inst.edge_cols.size());
  return inst.edge_cols[attr];
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
  st.meterSend(dst, msg.byteSize());
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
  st.meterSend(dst, msg.byteSize());
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
  st.meterSend(msg.dst, msg.byteSize());
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

// One partition's share of a wave: the CPU time its task consumed (workers
// share cores; wall time would charge a worker for time spent descheduled
// while peers ran), its wait — barrier wait under BSP, ready wait plus
// seal wait for an async superstep — and the wait it caused (see
// PartitionSuperstepStats::wait_caused_ns) and whether its task was stolen.
struct PartitionTiming {
  std::int64_t busy_ns = 0;
  std::int64_t sync_ns = 0;
  std::int64_t wait_caused_ns = 0;
  std::uint64_t stolen = 0;
};

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
// partition's task thread at the start of the superstep (not on the serial
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

// Drains per-superstep meters from a state into a stats record entry and,
// profiled, adds the superstep's closed units to their cells of the run's
// attribution table and their sends to the destinations' inbound totals.
void drainPartitionStats(WorkerState& st, PartitionSuperstepStats& ps,
                         const PartitionTiming& timing,
                         AttributionTable* attribution) {
  ps.send_ns = std::exchange(st.send_ns, 0);
  ps.load_ns = std::exchange(st.load_ns, 0);
  ps.compute_ns =
      std::max<std::int64_t>(0, timing.busy_ns - ps.send_ns - ps.load_ns);
  ps.sync_ns = timing.sync_ns;
  ps.wait_caused_ns = timing.wait_caused_ns;
  ps.stolen = timing.stolen;
  const SubgraphCosts costs = std::exchange(st.superstep_costs, {});
  ps.messages_sent = costs.msgs_out;
  ps.bytes_sent = costs.bytes_out;
  ps.subgraphs_computed = costs.computes;
  // tsg:hot — walks every unit and message of a sealed superstep.
  if (attribution != nullptr) [[unlikely]] {
    auto& row = attribution->rows[static_cast<std::size_t>(
        st.timestep - attribution->first_timestep)];
    for (const auto& [sg, cost] : st.pending_units) {
      row[sg] += cost;
    }
    for (const auto& [dst, bytes] : st.pending_inbound) {
      ++attribution->msgs_in[dst];
      attribution->bytes_in[dst] += bytes;
    }
    st.pending_units.clear();
    st.pending_inbound.clear();
  }
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
  Cluster& cluster;
  // Compute and merge supersteps run as stealing, readiness-gated waves.
  bool async;
  RunStats& stats;
  check::BspChecker* checker;  // null when protocol checking is off
  AttributionTable* attribution;  // null unless the profiler is armed
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

  // Flush counters alongside the record.
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
// behind every compute and merge wave, BSP and async alike. Loads the
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
    const std::int64_t unit_start = st.profiled ? steadyNowNs() : 0;
    if (merge) {
      st.program->merge(ctx);
    } else {
      st.program->compute(ctx);
    }
    ++st.unit.computes;
    st.closeUnit(st.profiled ? steadyNowNs() - unit_start : 0);
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

// Seals superstep s once every partition's share ran: drains the meters
// into a record, delivers the bus and commits the record. `timings` holds
// each partition's busy and sync time (zero rows for partitions a wave
// skipped). An injected delivery drop clears the fabric and unwinds into
// recovery instead.
void sealSuperstep(ExecEnv& env, Timestep t, std::int32_t s, ExecPhase phase,
                   const std::vector<PartitionTiming>& timings) {
  const auto k = static_cast<std::uint32_t>(env.states.size());
  const bool merge = phase == ExecPhase::kMerge;
  SuperstepRecord rec;
  rec.timestep = t;
  rec.superstep = s;
  rec.is_merge_phase = merge;
  rec.parts.resize(k);
  for (PartitionId p = 0; p < k; ++p) {
    drainPartitionStats(*env.states[p], rec.parts[p], timings[p],
                        env.attribution);
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

// Books a sealed wave's waits: each worker's own wait (barrier wait, or an
// async wave's seal wait) into its partition's sync_ns, and the sum of
// all of them as wait caused by the straggler — the partition whose task
// ended last. Runs in the seal, from what the cluster hands
// WaveDriver/OneWave.
void chargeSealWaits(const Cluster::Seal& seal,
                     std::vector<PartitionTiming>& timings) {
  std::int64_t total = 0;
  for (std::size_t p = 0; p < timings.size(); ++p) {
    timings[p].sync_ns += seal.wait_ns[p];
    total += seal.wait_ns[p];
  }
  if (seal.straggler < timings.size()) {
    timings[seal.straggler].wait_caused_ns += total;
  }
}

// Runs one phase through `driver` on the cluster's workers, starting with
// every partition.
void runPhase(ExecEnv& env, Cluster::Driver& driver, Cluster::Sync sync) {
  std::vector<PartitionId> wave(env.states.size());
  std::iota(wave.begin(), wave.end(), PartitionId{0});
  env.cluster.runWaves(driver, wave, sync);
}

// ---------------------------------------------------------------------------
// Superstep phases — a timestep's compute or the merge, under both schedules.
// ---------------------------------------------------------------------------
//
// Each superstep is one wave of whole (partition, superstep) tasks. The last
// finisher seals the wave — delivery, record commit, termination check and
// the next wave all happen there, exclusively, with no coordinator
// rendezvous. The phase terminates at the ReadyTracker's fixed point under
// both schedules (all halted, nothing delivered); the schedules differ only
// in the next wave: every partition behind a barrier under BSP, the
// partitions the tracker deems ready — stealable — under async. Every task
// runs the same body, so the send sequence (and therefore every digest) is
// identical under both.
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
    auto& timing = timings_[p];
    timing.busy_ns = threadCpuNowNs() - cpu_start;
    timing.sync_ns = info.ready_wait_ns;
    // A task that ends an all-idle gap left the scheduler starved for its
    // ready wait; a stolen task marks its home partition as overloaded.
    timing.wait_caused_ns = std::max<std::int64_t>(0, info.ready_wait_ns);
    timing.stolen = info.stolen ? 1 : 0;
  }

  std::vector<PartitionId> sealWave(const Cluster::Seal& seal) override {
    const auto k = static_cast<std::uint32_t>(env_.states.size());
    const std::int32_t s = seal.wave;
    chargeSealWaits(seal, timings_);
    sealSuperstep(env_, t_, s, phase_, timings_);
    std::fill(timings_.begin(), timings_.end(), PartitionTiming{});
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
    if (!env_.async) {
      next.resize(k);
      std::iota(next.begin(), next.end(), PartitionId{0});
    } else if (next.size() < k) {
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
  std::vector<PartitionTiming> timings_;
  std::int32_t waves_run_ = 0;
  MetricsRegistry::Counter& m_skips_;
};

// Runs one superstep phase (a timestep's compute or the merge) to
// quiescence and returns how many supersteps it took.
std::int32_t runSupersteps(ExecEnv& env, Timestep t, ExecPhase phase) {
  if (env.checker != nullptr) {
    env.checker->beginSuperstep(0);
  }
  WaveDriver driver(env, t, phase);
  runPhase(env, driver,
           env.async ? Cluster::Sync::kSteal : Cluster::Sync::kBarrier);
  return driver.wavesRun();
}

// A one-wave barriered phase under either schedule — end-of-timestep and
// maintenance: `job` runs once on every partition, all partitions take
// part regardless of halt state. Returns each partition's CPU busy time,
// barrier wait and caused wait.
std::vector<PartitionTiming> runBarrierWave(
    ExecEnv& env, const std::function<void(PartitionId)>& job) {
  class OneWave final : public Cluster::Driver {
   public:
    OneWave(const std::function<void(PartitionId)>& job, std::size_t k)
        : job_(job), timings_(k) {}
    void runTask(PartitionId p, const Cluster::TaskInfo&) override {
      const std::int64_t cpu_start = threadCpuNowNs();
      job_(p);
      timings_[p].busy_ns = threadCpuNowNs() - cpu_start;
    }
    std::vector<PartitionId> sealWave(const Cluster::Seal& seal) override {
      chargeSealWaits(seal, timings_);
      return {};
    }
    const std::function<void(PartitionId)>& job_;
    std::vector<PartitionTiming> timings_;
  };
  OneWave driver(job, env.states.size());
  runPhase(env, driver, Cluster::Sync::kBarrier);
  return std::move(driver.timings_);
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

// EndOfTimestep hook: every subgraph, one barriered wave (metered like a
// superstep). Returns whether every subgraph voted to halt the timestep
// loop.
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
  const auto eot_timings = runBarrierWave(env, [&env](PartitionId p) {
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
      st.closeUnit(0);
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
    drainPartitionStats(st, eot_rec.parts[p], eot_timings[p],
                        env.attribution);
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
// allocator arenas; the wave is recorded so it shows in per-timestep time.
void runMaintenance(ExecEnv& env, Timestep t) {
  TraceSpan span("tibsp", "tibsp.maintenance", "t", t);
  const auto k = static_cast<std::uint32_t>(env.states.size());
  const auto timings = runBarrierWave(env, [&env](PartitionId p) {
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
    rec.parts[p].wait_caused_ns = timings[p].wait_caused_ns;
  }
  commitRecord(env, std::move(rec), t);
}

// Protocol checker for the run's bus (null when checking is off). Registry
// reconciliation is only valid while no other bus is live.
std::unique_ptr<check::BspChecker> attachChecker(MessageBus& bus,
                                                 std::uint32_t k,
                                                 bool async_mode) {
  if (!check::enabled()) {
    return nullptr;
  }
  auto checker = std::make_unique<check::BspChecker>(k);
  checker->enableRegistryReconciliation();
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
  std::optional<AttributionTable> attribution;
  if (profile::enabled()) {
    attribution = profile::makeAttributionTable(pg_, first, count);
  }
  const auto metrics_before = MetricsRegistry::global().snapshot();
  const auto hists_before = MetricsRegistry::global().histogramSnapshot();
  Stopwatch wall;

  const bool use_async = config.schedule == Schedule::kAsync;
  Cluster cluster(k);
  MessageBus bus(k);
  // One worker state per partition, each served by a fresh program.
  std::vector<std::unique_ptr<TiBspProgram>> programs;
  std::vector<std::unique_ptr<WorkerState>> states;
  for (PartitionId p = 0; p < k; ++p) {
    programs.push_back(factory(p));
    TSG_CHECK(programs.back() != nullptr);
    states.push_back(std::make_unique<WorkerState>(
        pg_, p, bus, config.pattern, static_cast<std::size_t>(count),
        provider_.t0(), provider_.delta()));
    states.back()->program = programs.back().get();
    states.back()->profiled = attribution.has_value();
  }
  // Protocol checking: one checker per run, attached to the sole bus.
  const auto checker = attachChecker(bus, k, use_async);
  ExecEnv env{pg_,
              provider_,
              config,
              states,
              bus,
              cluster,
              use_async,
              result.stats,
              checker.get(),
              attribution ? &*attribution : nullptr};

  std::vector<Message> pending_next;
  std::vector<Message> merge_pool;
  CheckpointStore* const store = config.checkpoint_store;
  std::int32_t recoveries = 0;

  // Snapshot the consistent cut after `completed` finished (workers parked,
  // fabric empty): program state, outputs, carried messages, aggregates.
  const auto saveCheckpoint = [&](Timestep completed, std::int32_t executed) {
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
        const bool all_halt_timestep = runOneTimestep(env, t, std::move(seed));
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
            config.while_mode && all_halt_timestep && pending_next.empty()) {
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
                    std::string("worker fault without a checkpoint store: ") +
                        fault_cause.what());
      ++recoveries;
      TSG_CHECK_MSG(recoveries <= config.max_recoveries,
                    "recovery limit exhausted; last fault: " +
                        std::string(fault_cause.what()));
      TraceSpan rec_span("tibsp", "tibsp.recovery");
      TSG_LOG(Warn) << "recovering from fault (" << recoveries << "/"
                    << config.max_recoveries << "): " << fault_cause.what();
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
        st.unit = st.superstep_costs = SubgraphCosts{};
        st.pending_units.clear();
        st.pending_inbound.clear();
        st.agg_prev = ckpt.aggregates;
        st.instance = nullptr;
      }
      pending_next = std::move(ckpt.pending_next);
      merge_pool = std::move(ckpt.merge_pool);
      result.timesteps_executed = ckpt.timesteps_executed;
      i = (ckpt.timestep - first) + 1;
      stop = false;
    }
  }
  detachChecker(bus, checker.get());
  for (const auto& st_ptr : states) {
    result.outputs.insert(result.outputs.end(), st_ptr->outputs.begin(),
                          st_ptr->outputs.end());
  }

  result.stats.setWallClockNs(wall.elapsedNs());
  result.stats.setMetrics(
      snapshotDelta(metrics_before, MetricsRegistry::global().snapshot()));
  result.stats.setHistograms(histogramDelta(
      hists_before, MetricsRegistry::global().histogramSnapshot()));
  if (attribution) {
    result.stats.setAttribution(std::move(*attribution));
  }
  return result;
}

}  // namespace tsg
