#include "common/trace.h"

#include <cstdio>
#include <memory>
#include <mutex>

#include "common/json.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/table.h"

namespace tsg {

namespace trace_detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace trace_detail

// Per-thread event buffer. Owned by the registry (so it survives thread
// exit until clear()), appended to only by its thread, read by the exporting
// thread; the per-buffer mutex covers that one cross-thread handoff.
struct Tracer::ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  std::string name;
  std::uint32_t tid = 0;
};

namespace {

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<Tracer::ThreadBuffer>> buffers;
  // Bumped by clear() so threads re-register instead of touching freed
  // buffers they may still cache.
  std::atomic<std::uint64_t> generation{1};
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: threads may outlive main
  return *r;
}

thread_local Tracer::ThreadBuffer* t_buffer = nullptr;
thread_local std::uint64_t t_generation = 0;
thread_local std::string t_thread_name;

// Saturation accounting: events recorded once a per-thread buffer is full
// are dropped, counted here (for the warn-once at export) and into the
// `trace.dropped_events` metric (for RunStats / telemetry visibility).
std::atomic<std::size_t> g_max_events_per_buffer{
    Tracer::kDefaultMaxEventsPerBuffer};
std::atomic<std::uint64_t> g_dropped_events{0};
std::atomic<bool> g_drop_warned{false};

}  // namespace

Tracer& Tracer::instance() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::ThreadBuffer& Tracer::threadBuffer() {
  auto& reg = registry();
  const std::uint64_t gen = reg.generation.load(std::memory_order_acquire);  // tsg:mo(acquire pairs with clear()'s acq_rel generation bump)
  if (t_buffer == nullptr || t_generation != gen) {
    std::lock_guard lock(reg.mutex);
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->tid = static_cast<std::uint32_t>(reg.buffers.size());
    buffer->name = t_thread_name;
    t_buffer = buffer.get();
    // Re-read under the lock: a concurrent clear() cannot run between here
    // and the push_back because it takes the same mutex.
    t_generation = reg.generation.load(std::memory_order_relaxed);  // tsg:mo(re-read under reg.mutex; the lock orders it)
    reg.buffers.push_back(std::move(buffer));
  }
  return *t_buffer;
}

void Tracer::record(const TraceEvent& event) {
  auto& buffer = threadBuffer();
  std::lock_guard lock(buffer.mutex);
  if (buffer.events.size() >=
      g_max_events_per_buffer.load(std::memory_order_relaxed)) {  // tsg:mo(cap read; a stale cap only shifts the drop point)
    g_dropped_events.fetch_add(1, std::memory_order_relaxed);  // tsg:mo(drop tally; read after tracing stops)
    static MetricsRegistry::Counter& dropped =
        MetricsRegistry::global().counter("trace.dropped_events");
    dropped.increment();
    return;
  }
  buffer.events.push_back(event);
}

void Tracer::start() {
  clear();
  g_dropped_events.store(0, std::memory_order_relaxed);  // tsg:mo(reset before tracing starts; start()'s release publishes it)
  g_drop_warned.store(false, std::memory_order_relaxed);  // tsg:mo(reset before tracing starts; start()'s release publishes it)
  trace_detail::g_trace_enabled.store(true, std::memory_order_release);  // tsg:mo(release publishes the resets above to tracing threads)
}

void Tracer::stop() {
  trace_detail::g_trace_enabled.store(false, std::memory_order_release);  // tsg:mo(disable gate; sites re-check before touching buffers)
}

void Tracer::clear() {
  stop();
  auto& reg = registry();
  std::lock_guard lock(reg.mutex);
  reg.buffers.clear();
  reg.generation.fetch_add(1, std::memory_order_acq_rel);  // tsg:mo(acq_rel pairs with threadBuffer()'s acquire generation load)
}

void Tracer::setCurrentThreadName(std::string name) {
  t_thread_name = std::move(name);
  if (t_buffer != nullptr &&
      t_generation ==
          registry().generation.load(std::memory_order_acquire)) {  // tsg:mo(acquire pairs with clear()'s acq_rel generation bump)
    std::lock_guard lock(t_buffer->mutex);
    t_buffer->name = t_thread_name;
  }
}

std::size_t Tracer::eventCount() {
  auto& reg = registry();
  std::lock_guard lock(reg.mutex);
  std::size_t total = 0;
  for (const auto& buffer : reg.buffers) {
    std::lock_guard buffer_lock(buffer->mutex);
    total += buffer->events.size();
  }
  return total;
}

std::vector<TraceEvent> Tracer::snapshotEvents() {
  auto& reg = registry();
  std::lock_guard lock(reg.mutex);
  std::vector<TraceEvent> all;
  for (const auto& buffer : reg.buffers) {
    std::lock_guard buffer_lock(buffer->mutex);
    all.insert(all.end(), buffer->events.begin(), buffer->events.end());
  }
  return all;
}

namespace {

// Trace-event timestamps are microseconds; keep sub-µs precision as decimals.
void appendTsUs(std::string& out, std::int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

bool isFlowPhase(char phase) {
  return phase == 's' || phase == 't' || phase == 'f';
}

void appendEvent(JsonWriter& json, const TraceEvent& ev, std::uint32_t tid) {
  json.beginObject();
  json.kv("name", ev.name);
  if (ev.category != nullptr) {
    json.kv("cat", ev.category);
  }
  json.kv("ph", std::string_view(&ev.phase, 1));
  json.kv("pid", std::uint64_t{0});
  json.kv("tid", std::uint64_t{tid});
  json.key("ts");
  std::string ts;
  appendTsUs(ts, ev.ts_ns);
  json.rawNumber(ts);  // full precision; value(double) would round
  if (ev.phase == 'X') {
    json.key("dur");
    std::string dur;
    appendTsUs(dur, ev.dur_ns);
    json.rawNumber(dur);
  }
  if (isFlowPhase(ev.phase)) {
    json.kv("id", ev.flow_id);
    if (ev.phase == 'f') {
      json.kv("bp", "e");  // bind to the enclosing span
    }
  }
  json.key("args");
  json.beginObject();
  if (ev.phase == 'C') {
    json.kv("value", ev.v1);
  } else {
    if (ev.k1 != nullptr) {
      json.kv(ev.k1, ev.v1);
    }
    if (ev.k2 != nullptr) {
      json.kv(ev.k2, ev.v2);
    }
  }
  json.endObject();
  json.endObject();
}

}  // namespace

std::size_t Tracer::droppedEventCount() {
  return g_dropped_events.load(std::memory_order_relaxed);  // tsg:mo(drop tally read; reporting only)
}

void Tracer::setMaxEventsPerBufferForTest(std::size_t cap) {
  g_max_events_per_buffer.store(cap, std::memory_order_relaxed);  // tsg:mo(test-only cap write; set while quiescent)
}

std::string Tracer::toJson() {
  const std::uint64_t dropped =
      g_dropped_events.load(std::memory_order_relaxed);  // tsg:mo(drop tally read; toJson runs after tracing stops)
  if (dropped > 0 && !g_drop_warned.exchange(true)) {
    TSG_LOG(Warn) << "trace buffers saturated: " << dropped
                  << " events dropped; the exported trace is truncated";
  }
  auto& reg = registry();
  std::lock_guard lock(reg.mutex);
  JsonWriter json(1 << 16);
  json.beginObject();
  json.kv("displayTimeUnit", "ms");
  json.key("traceEvents");
  json.beginArray();
  for (const auto& buffer : reg.buffers) {
    std::lock_guard buffer_lock(buffer->mutex);
    if (!buffer->name.empty()) {
      json.beginObject();
      json.kv("name", "thread_name");
      json.kv("ph", "M");
      json.kv("pid", std::uint64_t{0});
      json.kv("tid", std::uint64_t{buffer->tid});
      json.key("args");
      json.beginObject();
      json.kv("name", buffer->name);
      json.endObject();
      json.endObject();
    }
    for (const auto& ev : buffer->events) {
      appendEvent(json, ev, buffer->tid);
    }
  }
  json.endArray();
  json.endObject();
  return json.take();
}

Status Tracer::writeJson(const std::string& path) {
  if (!writeTextFile(path, toJson())) {
    return Status::ioError("cannot write trace to " + path);
  }
  return Status::ok();
}

TraceSpan::TraceSpan(TraceLiteral category, TraceLiteral name, TraceLiteral k1,
                     std::int64_t v1, TraceLiteral k2, std::int64_t v2)
    : active_(Tracer::enabled()) {
  if (!active_) {
    return;
  }
  event_.category = category.str;
  event_.name = name.str;
  event_.phase = 'X';
  event_.k1 = k1.str;
  event_.v1 = v1;
  event_.k2 = k2.str;
  event_.v2 = v2;
  event_.ts_ns = steadyNowNs();
}

TraceSpan::~TraceSpan() {
  if (!active_) {
    return;
  }
  event_.dur_ns = steadyNowNs() - event_.ts_ns;
  // A span that straddles stop() is still recorded: its start was observed
  // under an enabled tracer and dropping it would unbalance the nesting.
  Tracer::instance().record(event_);
}

void traceCounter(TraceLiteral track, std::int64_t value) {
  if (!Tracer::enabled()) {
    return;
  }
  TraceEvent ev;
  ev.name = track.str;
  ev.phase = 'C';
  ev.ts_ns = steadyNowNs();
  ev.v1 = value;
  Tracer::instance().record(ev);
}

namespace {

std::atomic<std::uint64_t> g_next_flow_id{1};

void traceFlow(char phase, TraceLiteral category, TraceLiteral name,
               std::uint64_t flow_id) {
  if (!Tracer::enabled()) {
    return;
  }
  TraceEvent ev;
  ev.category = category.str;
  ev.name = name.str;
  ev.phase = phase;
  ev.ts_ns = steadyNowNs();
  ev.flow_id = flow_id;
  Tracer::instance().record(ev);
}

}  // namespace

std::uint64_t nextFlowId() {
  return g_next_flow_id.fetch_add(1, std::memory_order_relaxed);  // tsg:mo(flow-id allocator; uniqueness only, no ordering)
}

void traceFlowStart(TraceLiteral category, TraceLiteral name,
                    std::uint64_t flow_id) {
  traceFlow('s', category, name, flow_id);
}

void traceFlowStep(TraceLiteral category, TraceLiteral name,
                   std::uint64_t flow_id) {
  traceFlow('t', category, name, flow_id);
}

void traceFlowFinish(TraceLiteral category, TraceLiteral name,
                     std::uint64_t flow_id) {
  traceFlow('f', category, name, flow_id);
}

}  // namespace tsg
