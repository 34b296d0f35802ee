#include "telemetry/run_telemetry.h"

#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/metrics.h"
#include "common/stopwatch.h"

namespace tsg {
namespace {

// Prometheus file refresh throttle: scrapers poll at seconds granularity,
// so rewriting the file faster than this only burns I/O inside the tick.
constexpr std::int64_t kPromRefreshNs = 100'000'000;  // 100 ms

// Newest samples a --timeline= run keeps (8,192 × 10 ms ≈ 82 s at the
// default cadence); older ones are evicted, counted in produced_samples.
constexpr std::size_t kTimelineSamples = 8192;

std::string renderSamplePrometheus(const TelemetrySample& sample) {
  // The sample's histogram quantiles are already resolved, but the
  // exposition needs the registry's bucketed form for summaries — take a
  // fresh histogram snapshot (cheap: a handful of cells).
  return renderPrometheus(sample.points,
                          MetricsRegistry::global().histogramSnapshot(),
                          &sample.proc);
}

}  // namespace

RunTelemetry::RunTelemetry(RunTelemetryOptions options)
    : options_(std::move(options)) {}

RunTelemetry::~RunTelemetry() { (void)finish(); }

Status RunTelemetry::start() {
  if (!options_.armed() || sampler_ != nullptr) {
    return Status::ok();
  }
  TelemetryOptions sampler_options;
  sampler_options.sample_ms = options_.sample_ms >= 0 ? options_.sample_ms : 10;
  sampler_options.label = options_.label;
  sampler_options.on_sample = [this](TelemetrySample sample) {
    onSample(std::move(sample));
  };
  sampler_ = std::make_unique<TelemetrySampler>(std::move(sampler_options));

  if (options_.prom_port >= 0) {
    listener_ = std::make_unique<PromHttpListener>();
    const Status status = listener_->start(options_.prom_port, [] {
      return renderSamplePrometheus(TelemetrySampler::captureSample());
    });
    if (!status.isOk()) {
      listener_.reset();
      sampler_.reset();
      return status;
    }
  }
  sampler_->start();
  return Status::ok();
}

void RunTelemetry::onSample(TelemetrySample sample) {
  // Runs on the sampler thread between ticks. The file refresh is
  // throttled so a 1 ms cadence doesn't turn into a 1 kHz file rewrite.
  if (!options_.prom_path.empty() &&
      (last_prom_write_ns_ == 0 ||
       sample.ts_ns - last_prom_write_ns_ >= kPromRefreshNs)) {
    last_prom_write_ns_ = sample.ts_ns;
    const Status status =
        writePromFile(options_.prom_path, renderSamplePrometheus(sample));
    if (!status.isOk()) {
      TSG_LOG(Warn) << "telemetry: " << status.toString();
    }
  }
  const std::size_t keep =
      options_.timeline_path.empty() ? 1 : kTimelineSamples;
  if (kept_.size() == keep) {
    kept_.pop_front();
  }
  kept_.push_back(std::move(sample));
}

Status RunTelemetry::finish() {
  if (finished_ || sampler_ == nullptr) {
    return Status::ok();
  }
  finished_ = true;
  sampler_->stop();
  if (listener_ != nullptr) {
    listener_->stop();
  }
  // The sampler thread is joined: its samples are this thread's now. stop()
  // always takes a final sample, so the newest one exists.
  Status result = Status::ok();
  if (!options_.prom_path.empty()) {
    result = writePromFile(options_.prom_path,
                           renderSamplePrometheus(kept_.back()));
  }
  if (!options_.timeline_path.empty()) {
    const std::vector<TelemetrySample> samples(
        std::make_move_iterator(kept_.begin()),
        std::make_move_iterator(kept_.end()));
    const Timeline timeline = buildTimeline(samples, *sampler_);
    const Status written =
        writeTimelineFile(options_.timeline_path, timeline);
    if (written.isOk()) {
      TSG_LOG(Info) << "wrote timeline: " << options_.timeline_path << " ("
                    << timeline.t_ms.size() << " samples, "
                    << timeline.series.size() << " series)";
    } else {
      result = written;
    }
  }
  return result;
}

}  // namespace tsg
