// Prometheus text exposition (format 0.0.4) for the MetricsRegistry.
//
// Metric names are mangled to the Prometheus grammar: a `tsg_` prefix, dots
// become underscores, anything outside [a-zA-Z0-9_:] becomes '_'. The
// registry's naming convention (`<subsystem>.<snake_case>`, enforced by
// tsglint's metric-name rule) guarantees the mangling is injective in
// practice, so dashboard queries stay stable across releases. Partition
// labels become {partition="N"}; histograms are exposed as summaries
// (quantile series + _sum + _count).
//
// Two transports, both fed from the telemetry sampler:
//   * --prom=path   — the exposition rewritten atomically (tmp + rename) on
//                     a throttle, for node-exporter-style textfile scraping;
//   * --prom-port=N — PromHttpListener, a minimal blocking HTTP/1.0 server
//                     that answers every GET with the current exposition
//                     (the `tsgd` server will inherit this endpoint).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>

#include "common/metrics.h"
#include "common/status.h"
#include "telemetry/proc_stats.h"

namespace tsg {

// `bus.messages_delivered` -> `tsg_bus_messages_delivered`.
std::string promMetricName(std::string_view name);

// Appends `value` with Prometheus label-value escaping (backslash, double
// quote, newline); does NOT add the surrounding quotes.
void appendPromEscaped(std::string& out, std::string_view value);

// Renders the full exposition: counters and gauges from `points`,
// histograms as summaries, process stats (when valid) as tsg_process_*.
std::string renderPrometheus(
    const MetricsRegistry::Snapshot& points,
    const MetricsRegistry::HistogramSnapshots& histograms,
    const ProcStats* proc);

// Atomic file publish: write to `path`.tmp then rename over `path`, so a
// scraper never reads a torn exposition.
Status writePromFile(const std::string& path, const std::string& body);

// Minimal blocking HTTP listener: one accept thread, one response per
// connection, Connection: close. Enough for a scraper, deliberately not a
// web server. Linux/POSIX only; start() fails cleanly elsewhere.
class PromHttpListener {
 public:
  using Handler = std::function<std::string()>;

  PromHttpListener() = default;
  ~PromHttpListener();

  PromHttpListener(const PromHttpListener&) = delete;
  PromHttpListener& operator=(const PromHttpListener&) = delete;

  // Binds 0.0.0.0:`port` (0 = ephemeral; see port() for the result) and
  // starts the accept thread. `handler` runs on that thread per request.
  Status start(int port, Handler handler);
  void stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);  // tsg:mo(acquire pairs with start()'s release store)
  }
  // The bound port (useful with port 0); 0 when not running.
  [[nodiscard]] int port() const { return port_; }

 private:
  void acceptLoop();

  Handler handler_;
  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;  // NOLINT(tsg-naked-thread) — blocking accept loop,
                        // lifecycle-managed by start()/stop().
};

}  // namespace tsg
