// Live telemetry: in-run sampling of the MetricsRegistry on a cadence.
//
// A TelemetrySampler is a clock: a background thread that, every
// `sample_ms` milliseconds, snapshots the process-wide MetricsRegistry
// (counters, gauges, histogram quantiles) plus /proc/self process stats
// and hands the sample to its one consumer, `on_sample`. It keeps no
// history: RunTelemetry (run_telemetry.h) decides what to keep — the last
// sample for the Prometheus file and, with --timeline=, a bounded window
// it reads only after stop() joins. `tsgcli top` takes its frames with
// captureSample() and constructs no sampler.
//
// Cost model: nothing here exists unless a telemetry flag armed it — a run
// without --sample-ms/--timeline/--prom* constructs no sampler, so the
// steady-state cost when off is zero. When on, the budget is one registry
// snapshot (~a few µs for a few hundred cells) per tick on a thread of its
// own; ci/check_overhead.py fails CI when the median wall clock of five
// sampler-on runs exceeds that of five interleaved sampler-off runs by
// more than 2% and by more than the off runs' own range (max - min).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "telemetry/proc_stats.h"

namespace tsg {

// One captured sample: a timestamp, process stats and the registry's state.
struct TelemetrySample {
  std::int64_t ts_ns = 0;  // steadyNowNs() at capture
  ProcStats proc;
  MetricsRegistry::Snapshot points;  // counters + gauges, sorted

  // Derived histogram state (quantiles resolved at capture, so consumers
  // never need the bucket arrays).
  struct HistPoint {
    std::string name;
    std::int32_t partition = MetricsRegistry::kNoPartition;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
  };
  std::vector<HistPoint> hists;
};

struct TelemetryOptions {
  int sample_ms = 10;  // cadence; clamped to >= 1
  std::string label;   // run label, stamped into the timeline
  // Required: receives every captured sample, on the sampler thread, and
  // owns it from then on. Keep it cheap; it runs inside the tick.
  std::function<void(TelemetrySample)> on_sample;
};

// The background sampling thread. start() spawns it, stop() joins it; the
// destructor stops. captureSample() is exposed so tests and `tsgcli top`
// can take a sample synchronously without the thread.
class TelemetrySampler {
 public:
  explicit TelemetrySampler(TelemetryOptions options);
  ~TelemetrySampler();

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  void start();
  void stop();
  [[nodiscard]] bool running() const { return thread_.joinable(); }

  [[nodiscard]] const TelemetryOptions& options() const { return options_; }

  // The sampler thread's tallies, summed over every start()/stop() span.
  // Read them only while the sampler is stopped (stop() joins the thread).
  [[nodiscard]] std::uint64_t producedSamples() const { return produced_; }
  // Ticks skipped because a capture overran the cadence (the schedule
  // skips forward rather than bunching late samples).
  [[nodiscard]] std::uint64_t missedTicks() const { return missed_ticks_; }

  // One synchronous capture of registry + process state.
  [[nodiscard]] static TelemetrySample captureSample();

 private:
  void threadMain();
  // Captures, stamps the sampler's own points and hands the sample over.
  void emitSample();

  TelemetryOptions options_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;  // guarded by mutex_
  std::uint64_t produced_ = 0;      // written by the sampler thread only
  std::uint64_t missed_ticks_ = 0;  // written by the sampler thread only
  std::thread thread_;  // NOLINT(tsg-naked-thread) — long-lived background
                        // sampler, deliberately outside the worker pools so
                        // it can observe them.
};

}  // namespace tsg
