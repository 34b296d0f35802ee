// Run tracing — Chrome/Perfetto trace-event capture for the TI-BSP stack.
//
// The tracer is a process-wide singleton that buffers events per thread and
// serializes them as Chrome trace-event JSON ("traceEvents" array), loadable
// in Perfetto / chrome://tracing. Three event kinds:
//   * spans    — RAII TraceSpan objects become complete ("X") events with
//                nested durations (timestep → superstep → partition job);
//   * counters — numeric tracks ("C"), e.g. delivered messages per superstep;
//   * flows    — "s"/"t"/"f" events sharing a 64-bit flow id, drawn by the
//                viewer as arrows between the spans that enclose them. The
//                message fabric uses them to causally link a batch's send
//                (worker thread) → deliver (coordinator) → drain (receiving
//                worker) across named threads.
//
// Cost model: when tracing is disabled (the default), every instrumentation
// site is one relaxed atomic load and a branch — no allocation, no clock
// read. When enabled, an event is one clock read plus an append to the
// calling thread's buffer under that buffer's (uncontended) mutex; hot
// per-message/per-vertex paths are deliberately NOT instrumented, only
// structural points (rounds, supersteps, deliveries, pack loads).
//
// Event names and arg keys must be string literals: events store the
// pointers, not copies, and the buffers outlive any call-site scope. The
// public API enforces this at compile time via TraceLiteral — passing a
// runtime char* (e.g. std::string::c_str()) is a build error, not a
// use-after-free at export time.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace tsg {

namespace trace_detail {
extern std::atomic<bool> g_trace_enabled;
}  // namespace trace_detail

// Compile-time guard for the literal-lifetime contract: only constructible
// (consteval) from character-array literals or nullptr, so every name /
// category / arg key handed to the tracer is known to live forever. Used at
// all instrumentation call sites via the TraceSpan / traceCounter /
// traceFlow* signatures.
struct TraceLiteral {
  template <std::size_t N>
  consteval TraceLiteral(const char (&literal)[N])  // NOLINT(runtime/explicit)
      : str(literal) {}
  consteval TraceLiteral(std::nullptr_t)  // NOLINT(runtime/explicit)
      : str(nullptr) {}

  const char* str;
};

// One buffered event (exposed for tests; not part of the stable API).
struct TraceEvent {
  const char* category = nullptr;
  const char* name = nullptr;
  char phase = 'X';         // 'X' complete, 'C' counter,
                            // 's'/'t'/'f' flow start/step/finish
  std::int64_t ts_ns = 0;   // steady-clock nanoseconds
  std::int64_t dur_ns = 0;  // 'X' only
  std::uint64_t flow_id = 0;  // 's'/'t'/'f' only; pairs the arrow endpoints
  // Up to two integer args ('X'); 'C' stores the counter value in v1.
  const char* k1 = nullptr;
  std::int64_t v1 = 0;
  const char* k2 = nullptr;
  std::int64_t v2 = 0;
};

class Tracer {
 public:
  // The process-wide tracer instance.
  static Tracer& instance();

  // True while events are being collected. The one-branch gate every
  // instrumentation site checks first.
  static bool enabled() {
    return trace_detail::g_trace_enabled.load(std::memory_order_relaxed);  // tsg:mo(gate read; a stale false only skips one event)
  }

  // Drops previously buffered events and starts collecting.
  void start();
  // Stops collecting; buffered events stay available for export.
  void stop();
  // Stops and drops all buffered events and thread registrations.
  void clear();

  // Names the calling thread in the exported trace ("partition-3", ...).
  // Safe to call whether or not tracing is enabled; the name sticks across
  // start()/clear() cycles for the lifetime of the thread.
  static void setCurrentThreadName(std::string name);

  // Export. Call after the traced work finished (no concurrent spans open).
  // Warns once per start() if any events were dropped (see below), so a
  // truncated trace never silently passes for a complete one.
  [[nodiscard]] std::string toJson();
  Status writeJson(const std::string& path);

  // Per-thread buffers are capped (default 1<<18 events ≈ 23 MB/thread);
  // events recorded past the cap are discarded and counted into the
  // `trace.dropped_events` metric. droppedEventCount() reports drops since
  // the last start().
  static constexpr std::size_t kDefaultMaxEventsPerBuffer = std::size_t{1}
                                                            << 18;
  [[nodiscard]] static std::size_t droppedEventCount();
  // Test hook: shrink the cap so saturation is reachable without recording
  // 2^18 events. Takes effect for subsequent record() calls.
  static void setMaxEventsPerBufferForTest(std::size_t cap);

  // Introspection for tests.
  [[nodiscard]] std::size_t eventCount();
  [[nodiscard]] std::vector<TraceEvent> snapshotEvents();

  // Internal: appends to the calling thread's buffer (enabled() was true).
  void record(const TraceEvent& event);

  // Implementation detail (per-thread event buffer); public only so the
  // out-of-line definition and its registry can name it.
  struct ThreadBuffer;

 private:
  Tracer() = default;
  ThreadBuffer& threadBuffer();
};

// RAII scoped span: records one complete event from construction to
// destruction. Construction with tracing disabled costs one branch.
class TraceSpan {
 public:
  explicit TraceSpan(TraceLiteral category, TraceLiteral name,
                     TraceLiteral k1 = nullptr, std::int64_t v1 = 0,
                     TraceLiteral k2 = nullptr, std::int64_t v2 = 0);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  bool active_;
  TraceEvent event_;
};

// Counter track sample: `track` becomes a named counter series in Perfetto.
void traceCounter(TraceLiteral track, std::int64_t value);

// --- Flow events -----------------------------------------------------------
// A flow is an arrow the viewer draws between the enclosing spans of its
// start/step/finish events; all three must share the same (category, name)
// and flow id. Emit the start on the producing thread, optional steps at
// hand-off points, and the finish on the consuming thread.

// Allocates a process-unique nonzero flow id.
std::uint64_t nextFlowId();

void traceFlowStart(TraceLiteral category, TraceLiteral name,
                    std::uint64_t flow_id);
void traceFlowStep(TraceLiteral category, TraceLiteral name,
                   std::uint64_t flow_id);
// Emitted with binding point "enclosing" so the arrow lands on the span
// that contains the finish, not the next slice on the thread.
void traceFlowFinish(TraceLiteral category, TraceLiteral name,
                     std::uint64_t flow_id);

}  // namespace tsg
