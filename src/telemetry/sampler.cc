#include "telemetry/sampler.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/status.h"
#include "common/stopwatch.h"
#include "common/trace.h"

namespace tsg {
namespace {

// Sampler self-telemetry, injected as synthetic points so the Prometheus
// exposition (tsg_telemetry_*) and the timeline carry the sampler's own
// health without routing it through the process-wide registry (which would
// leak them into every run's counter deltas).
void appendSamplerPoints(TelemetrySample& sample, std::uint64_t produced,
                         std::uint64_t missed_ticks) {
  const auto insert_sorted = [&sample](std::string name, std::uint64_t value) {
    MetricsRegistry::Point p;
    p.name = std::move(name);
    p.value = static_cast<std::int64_t>(value);
    // Snapshots stay sorted by (name, partition): consumers binary-search.
    const auto it = std::lower_bound(
        sample.points.begin(), sample.points.end(), p,
        [](const MetricsRegistry::Point& a, const MetricsRegistry::Point& b) {
          return std::tie(a.name, a.partition) < std::tie(b.name, b.partition);
        });
    sample.points.insert(it, std::move(p));
  };
  insert_sorted("telemetry.missed_ticks", missed_ticks);
  insert_sorted("telemetry.produced_samples", produced);
}

}  // namespace

TelemetrySampler::TelemetrySampler(TelemetryOptions options)
    : options_(std::move(options)) {
  TSG_CHECK_MSG(options_.on_sample != nullptr,
                "TelemetrySampler needs an on_sample consumer");
  options_.sample_ms = std::max(1, options_.sample_ms);
}

TelemetrySampler::~TelemetrySampler() { stop(); }

TelemetrySample TelemetrySampler::captureSample() {
  TelemetrySample sample;
  sample.ts_ns = steadyNowNs();
  sample.proc = readProcStats();
  auto& registry = MetricsRegistry::global();
  sample.points = registry.snapshot();
  const auto hists = registry.histogramSnapshot();
  sample.hists.reserve(hists.size());
  for (const auto& h : hists) {
    TelemetrySample::HistPoint hp;
    hp.name = h.name;
    hp.partition = h.partition;
    hp.count = h.count;
    hp.sum = h.sum;
    hp.p50 = h.quantile(0.5);
    hp.p99 = h.quantile(0.99);
    sample.hists.push_back(std::move(hp));
  }
  return sample;
}

void TelemetrySampler::start() {
  if (running()) {
    return;
  }
  {
    std::lock_guard lock(mutex_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { threadMain(); });  // NOLINT(tsg-naked-thread)
}

void TelemetrySampler::stop() {
  if (!running()) {
    return;
  }
  {
    std::lock_guard lock(mutex_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void TelemetrySampler::emitSample() {
  TelemetrySample sample = captureSample();
  appendSamplerPoints(sample, produced_, missed_ticks_);
  ++produced_;
  options_.on_sample(std::move(sample));
}

void TelemetrySampler::threadMain() {
  Tracer::setCurrentThreadName("telemetry-sampler");
  const auto interval = std::chrono::milliseconds(options_.sample_ms);
  auto next_tick = std::chrono::steady_clock::now();
  while (true) {
    {
      std::unique_lock lock(mutex_);
      cv_.wait_until(lock, next_tick, [this] { return stop_requested_; });
      if (stop_requested_) {
        break;
      }
    }
    emitSample();
    // Absolute schedule: if a capture overran one or more ticks, skip them
    // (counted) rather than firing a burst of late samples.
    next_tick += interval;
    const auto now = std::chrono::steady_clock::now();
    while (next_tick < now) {
      next_tick += interval;
      ++missed_ticks_;
    }
  }
  // Final capture so the timeline's last sample covers the run tail.
  emitSample();
}

}  // namespace tsg
