// RunTelemetry — the flag-level glue tsgcli and the bench binaries share.
//
// Callers fill RunTelemetryOptions from their --sample-ms / --timeline /
// --prom / --prom-port flags; armed() says whether any output was asked
// for (--sample-ms only sets the cadence, so alone it arms nothing). When
// armed, start() spawns the TelemetrySampler (and the
// Prometheus listener when requested) and finish() stops everything and
// writes the timeline JSON and the final Prometheus file. A run without
// telemetry flags never constructs this object's sampler, keeping the
// off-path at zero cost.
//
// RunTelemetry is the sampler's one consumer and owns what is kept of the
// samples: the newest one (for the final --prom= write) and, only with
// --timeline=, the newest 8,192 of them. Both are written on the sampler
// thread and read by finish() after stop() joins it, so no history is
// ever read while the sampler runs. The --prom-port listener renders a
// fresh captureSample() per scrape and reads neither.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "common/status.h"
#include "telemetry/prom.h"
#include "telemetry/sampler.h"
#include "telemetry/timeline.h"

namespace tsg {

struct RunTelemetryOptions {
  // Cadence of an armed run. <0 = unset: the cadence defaults to 10 ms.
  int sample_ms = -1;
  std::string timeline_path;  // --timeline=out.json ("" = off)
  std::string prom_path;      // --prom=path ("" = off)
  int prom_port = -1;         // --prom-port=N (-1 = off, 0 = ephemeral)
  std::string label;          // stamped into the timeline

  // Only an output arms telemetry: samples nothing reads are not taken.
  [[nodiscard]] bool armed() const {
    return !timeline_path.empty() || !prom_path.empty() || prom_port >= 0;
  }
};

class RunTelemetry {
 public:
  explicit RunTelemetry(RunTelemetryOptions options);
  ~RunTelemetry();

  RunTelemetry(const RunTelemetry&) = delete;
  RunTelemetry& operator=(const RunTelemetry&) = delete;

  // Starts the sampler and (if requested) the HTTP listener. No-op when
  // not armed. Errors (e.g. an unbindable --prom-port) are returned, not
  // fatal: the caller decides whether to abort the run.
  Status start();

  // Stops sampling, writes the timeline JSON and the final Prometheus
  // exposition, and shuts down the listener. Safe to call more than once;
  // the destructor calls it too (ignoring the status).
  Status finish();

  [[nodiscard]] bool armed() const { return options_.armed(); }
  [[nodiscard]] const TelemetrySampler* sampler() const {
    return sampler_.get();
  }
  // Bound Prometheus port (for --prom-port=0); 0 when no listener runs.
  [[nodiscard]] int promPort() const {
    return listener_ != nullptr ? listener_->port() : 0;
  }

 private:
  void onSample(TelemetrySample sample);

  RunTelemetryOptions options_;
  std::unique_ptr<TelemetrySampler> sampler_;
  std::unique_ptr<PromHttpListener> listener_;
  // Written on the sampler thread; finish() reads them after stop().
  std::int64_t last_prom_write_ns_ = 0;
  // The newest samples, oldest first: 8,192 with --timeline=, else one.
  std::deque<TelemetrySample> kept_;
  bool finished_ = false;
};

}  // namespace tsg
