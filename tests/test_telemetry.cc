// Tests for src/telemetry/: the sampler's cadence, what RunTelemetry keeps
// and writes, the Prometheus exposition grammar, the timeline JSON schema,
// and the trace buffer saturation accounting that rides along in this
// subsystem.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/trace.h"
#include "telemetry/proc_stats.h"
#include "telemetry/prom.h"
#include "telemetry/run_telemetry.h"
#include "telemetry/sampler.h"
#include "telemetry/timeline.h"
#include "test_util.h"

namespace tsg {
namespace {

TelemetrySample makeSample(std::int64_t ts_ns) {
  TelemetrySample sample;
  sample.ts_ns = ts_ns;
  return sample;
}

// The value of an unpartitioned point in a sample, or -1 if absent.
std::int64_t pointValue(const TelemetrySample& sample, std::string_view name) {
  for (const auto& p : sample.points) {
    if (p.name == name && p.partition == MetricsRegistry::kNoPartition) {
      return p.value;
    }
  }
  return -1;
}

// ---------------------------------------------------------------------------
// TelemetrySampler
// ---------------------------------------------------------------------------

TEST(TelemetrySampler, CaptureSampleReadsRegistryAndProcess) {
  MetricsRegistry::global().counter("telemetrytest.captures").increment();
  const TelemetrySample sample = TelemetrySampler::captureSample();
  EXPECT_GT(sample.ts_ns, 0);
  bool found = false;
  for (const auto& p : sample.points) {
    if (p.name == "telemetrytest.captures") {
      found = true;
      EXPECT_GE(p.value, 1);
    }
  }
  EXPECT_TRUE(found);
#ifdef __linux__
  EXPECT_TRUE(sample.proc.valid);
  EXPECT_GT(sample.proc.rss_bytes, 0);
  EXPECT_GE(sample.proc.threads, 1);
#endif
}

TEST(TelemetrySampler, SamplesAtCadenceUnderLoad) {
  // The consumer runs on the sampler thread; the vector is read only after
  // stop() joins it.
  std::vector<TelemetrySample> samples;
  TelemetryOptions options;
  options.sample_ms = 2;
  options.on_sample = [&samples](TelemetrySample sample) {
    samples.push_back(std::move(sample));
  };
  TelemetrySampler sampler(options);
  sampler.start();
  EXPECT_TRUE(sampler.running());

  // Busy work on this thread while the sampler ticks on its own.
  auto& counter = MetricsRegistry::global().counter("telemetrytest.spin");
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(60);
  while (std::chrono::steady_clock::now() < until) {
    counter.increment();
  }
  sampler.stop();
  EXPECT_FALSE(sampler.running());

  // 60 ms at a 2 ms cadence: demand the order of magnitude, not the exact
  // count — CI machines stall. Missed ticks are skipped, never bunched, so
  // produced + missed ≈ elapsed/cadence.
  ASSERT_GE(samples.size(), 5u);
  EXPECT_EQ(sampler.producedSamples(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(samples[i - 1].ts_ns, samples[i].ts_ns);
    }
    // Each sample carries its own 0-based number.
    EXPECT_EQ(pointValue(samples[i], "telemetry.produced_samples"),
              static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(pointValue(samples.back(), "telemetry.missed_ticks"),
            static_cast<std::int64_t>(sampler.missedTicks()));
  // The final capture at stop() sees the spin counter's end state.
  EXPECT_EQ(pointValue(samples.back(), "telemetrytest.spin"),
            static_cast<std::int64_t>(counter.value()));
}

TEST(TelemetrySampler, StopIsIdempotentAndRestartable) {
  TelemetryOptions options;
  options.sample_ms = 1;
  options.on_sample = [](TelemetrySample) {};
  TelemetrySampler sampler(options);
  sampler.start();
  sampler.stop();
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  const auto produced = sampler.producedSamples();
  EXPECT_GE(produced, 1u);  // the final capture at minimum
  sampler.start();
  sampler.stop();
  EXPECT_GT(sampler.producedSamples(), produced);
}

TEST(TelemetrySampler, OnSampleHookRunsPerTick) {
  std::atomic<int> calls{0};
  TelemetryOptions options;
  options.sample_ms = 1;
  options.on_sample = [&](const TelemetrySample& sample) {
    EXPECT_GT(sample.ts_ns, 0);
    calls.fetch_add(1);
  };
  TelemetrySampler sampler(options);
  sampler.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sampler.stop();
  EXPECT_GE(calls.load(), 2);
}

// ---------------------------------------------------------------------------
// RunTelemetry
// ---------------------------------------------------------------------------

std::string readText(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(RunTelemetry, WritesTheKeptSamplesAfterStop) {
  testing::TempDir dir("tsg_run_telemetry");
  std::filesystem::create_directories(dir.path());
  RunTelemetryOptions options;
  options.sample_ms = 1;
  options.timeline_path = dir.path() + "/timeline.json";
  options.prom_path = dir.path() + "/metrics.prom";
  options.label = "kept";
  RunTelemetry telemetry(options);
  ASSERT_TRUE(telemetry.start().isOk());
  auto& counter = MetricsRegistry::global().counter("telemetrytest.kept");
  for (int i = 0; i < 10; ++i) {
    counter.increment();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(telemetry.finish().isOk());
  EXPECT_TRUE(telemetry.finish().isOk());  // idempotent

  auto loaded = timelineFromJson(readText(options.timeline_path));
  ASSERT_TRUE(loaded.isOk()) << loaded.status().toString();
  const Timeline& timeline = loaded.value();
  EXPECT_EQ(timeline.label, "kept");
  ASSERT_GE(timeline.t_ms.size(), 2u);
  // A run this short keeps every sample the sampler took, oldest first.
  EXPECT_EQ(timeline.produced_samples, timeline.t_ms.size());
  const auto* produced = timeline.find("telemetry.produced_samples");
  ASSERT_NE(produced, nullptr);
  for (std::size_t i = 0; i < produced->values.size(); ++i) {
    EXPECT_EQ(produced->values[i], static_cast<double>(i));
  }
  // The last sample is the one stop() takes: it sees the counter's end
  // state, and the final Prometheus write renders that same sample.
  const auto* kept = timeline.find("telemetrytest.kept");
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->values.back(), static_cast<double>(counter.value()));
  const std::string prom = readText(options.prom_path);
  EXPECT_NE(prom.find("tsg_telemetrytest_kept " +
                      std::to_string(counter.value()) + "\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("tsg_telemetry_produced_samples " +
                      std::to_string(timeline.t_ms.size() - 1) + "\n"),
            std::string::npos)
      << prom;
}

// --sample-ms only sets the cadence: without an output to feed, no sampler
// thread is started.
TEST(RunTelemetry, CadenceAloneArmsNothing) {
  RunTelemetryOptions options;
  options.sample_ms = 1;
  EXPECT_FALSE(options.armed());
  RunTelemetry telemetry(options);
  EXPECT_FALSE(telemetry.armed());
  ASSERT_TRUE(telemetry.start().isOk());
  EXPECT_EQ(telemetry.sampler(), nullptr);
  EXPECT_TRUE(telemetry.finish().isOk());
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

TEST(Prom, MetricNameManglesToPrometheusGrammar) {
  EXPECT_EQ(promMetricName("bus.inflight_messages"),
            "tsg_bus_inflight_messages");
  EXPECT_EQ(promMetricName("engine.superstep_compute_ns"),
            "tsg_engine_superstep_compute_ns");
  EXPECT_EQ(promMetricName("weird-name!"), "tsg_weird_name_");
}

TEST(Prom, EscapesLabelValues) {
  std::string out;
  appendPromEscaped(out, "a\\b\"c\nd");
  EXPECT_EQ(out, "a\\\\b\\\"c\\nd");
}

TEST(Prom, RendersCountersGaugesHistogramsAndProcessStats) {
  MetricsRegistry::Snapshot points;
  points.push_back({"bus.messages_delivered", MetricsRegistry::kNoPartition,
                    false, 42});
  points.push_back({"cluster.worker_queue_depth", 1, true, 7});

  MetricsRegistry::HistogramSnapshot hist;
  hist.name = "engine.superstep_compute_ns";
  hist.count = 4;
  hist.sum = 1000;
  hist.max = 600;
  hist.buckets[4] = 4;

  ProcStats proc;
  proc.valid = true;
  proc.rss_bytes = 1 << 20;
  proc.cpu_ns = 5'000'000;
  proc.threads = 3;

  const std::string body = renderPrometheus(points, {hist}, &proc);
  EXPECT_NE(body.find("# TYPE tsg_bus_messages_delivered counter\n"
                      "tsg_bus_messages_delivered 42\n"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("# TYPE tsg_cluster_worker_queue_depth gauge\n"
                      "tsg_cluster_worker_queue_depth{partition=\"1\"} 7\n"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("# TYPE tsg_engine_superstep_compute_ns summary"),
            std::string::npos);
  EXPECT_NE(body.find("tsg_engine_superstep_compute_ns{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(body.find("tsg_engine_superstep_compute_ns_sum 1000"),
            std::string::npos);
  EXPECT_NE(body.find("tsg_engine_superstep_compute_ns_count 4"),
            std::string::npos);
  EXPECT_NE(body.find("tsg_process_rss_bytes 1048576"), std::string::npos);
  EXPECT_NE(body.find("tsg_process_threads 3"), std::string::npos);
}

TEST(Prom, OneTypeLinePerPartitionedFamily) {
  MetricsRegistry::Snapshot points;
  points.push_back({"gofs.resident_bytes", 0, true, 10});
  points.push_back({"gofs.resident_bytes", 1, true, 20});
  const std::string body = renderPrometheus(points, {}, nullptr);
  std::size_t count = 0;
  for (std::size_t pos = body.find("# TYPE tsg_gofs_resident_bytes");
       pos != std::string::npos;
       pos = body.find("# TYPE tsg_gofs_resident_bytes", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

#ifdef __linux__
TEST(Prom, HttpListenerServesTheHandlerBody) {
  PromHttpListener listener;
  const Status started = listener.start(0, [] {
    return std::string("tsg_test_metric 1\n");
  });
  ASSERT_TRUE(started.isOk()) << started.toString();
  ASSERT_GT(listener.port(), 0);
  // A second start must refuse rather than leak a socket.
  EXPECT_FALSE(listener.start(0, [] { return std::string(); }).isOk());
  listener.stop();
  EXPECT_FALSE(listener.running());
  // Restartable after stop.
  ASSERT_TRUE(listener.start(0, [] { return std::string(); }).isOk());
  listener.stop();
}
#endif

// ---------------------------------------------------------------------------
// Timeline
// ---------------------------------------------------------------------------

std::vector<TelemetrySample> timelineFixture() {
  std::vector<TelemetrySample> samples;
  for (int i = 0; i < 3; ++i) {
    TelemetrySample s = makeSample(1'000'000LL * (i + 1));
    s.points.push_back({"bus.messages_delivered",
                        MetricsRegistry::kNoPartition, false, 10 * (i + 1)});
    s.points.push_back({"cluster.worker_queue_depth", 0, true, 5 - i});
    TelemetrySample::HistPoint hp;
    hp.name = "engine.superstep_compute_ns";
    hp.count = static_cast<std::uint64_t>(i + 1);
    hp.p50 = 100;
    hp.p99 = 900;
    s.hists.push_back(hp);
    s.proc.valid = true;
    s.proc.rss_bytes = (1 + i) * 1024;
    s.proc.cpu_ns = 1000 * i;
    s.proc.threads = 2;
    samples.push_back(std::move(s));
  }
  return samples;
}

TelemetryOptions fixtureOptions() {
  TelemetryOptions options;
  options.sample_ms = 1;
  options.label = "fixture";
  options.on_sample = [](TelemetrySample) {};
  return options;
}

TEST(Timeline, BuildsAlignedColumnsFromSamples) {
  const TelemetrySampler sampler(fixtureOptions());
  const Timeline timeline = buildTimeline(timelineFixture(), sampler);
  ASSERT_EQ(timeline.t_ms.size(), 3u);
  EXPECT_DOUBLE_EQ(timeline.t_ms[0], 0.0);
  EXPECT_DOUBLE_EQ(timeline.t_ms[2], 2.0);
  EXPECT_EQ(timeline.label, "fixture");

  const auto* delivered = timeline.find("bus.messages_delivered");
  ASSERT_NE(delivered, nullptr);
  EXPECT_EQ(delivered->kind, "counter");
  EXPECT_EQ(delivered->values, (std::vector<double>{10, 20, 30}));
  EXPECT_FALSE(delivered->isConstant());

  const auto* depth = timeline.find("cluster.worker_queue_depth", 0);
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->kind, "gauge");

  // Histogram-derived series get suffixed names; process stats appear too.
  EXPECT_NE(timeline.find("engine.superstep_compute_ns.count"), nullptr);
  EXPECT_NE(timeline.find("engine.superstep_compute_ns.p99"), nullptr);
  EXPECT_NE(timeline.find("process.rss_bytes"), nullptr);
  const auto* threads = timeline.find("process.threads");
  ASSERT_NE(threads, nullptr);
  EXPECT_TRUE(threads->isConstant());
}

TEST(Timeline, JsonIsValidAndRoundTrips) {
  const TelemetrySampler sampler(fixtureOptions());
  const Timeline timeline = buildTimeline(timelineFixture(), sampler);
  const std::string json = timelineToJson(timeline);
  EXPECT_TRUE(testing::isValidJson(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);

  auto loaded = timelineFromJson(json);
  ASSERT_TRUE(loaded.isOk()) << loaded.status().toString();
  EXPECT_EQ(loaded.value().schema_version, kTimelineSchemaVersion);
  EXPECT_EQ(loaded.value().label, timeline.label);
  EXPECT_EQ(loaded.value().t_ms, timeline.t_ms);
  ASSERT_EQ(loaded.value().series.size(), timeline.series.size());
  for (std::size_t i = 0; i < timeline.series.size(); ++i) {
    EXPECT_EQ(loaded.value().series[i].name, timeline.series[i].name);
    EXPECT_EQ(loaded.value().series[i].partition,
              timeline.series[i].partition);
    EXPECT_EQ(loaded.value().series[i].kind, timeline.series[i].kind);
    EXPECT_EQ(loaded.value().series[i].values, timeline.series[i].values);
  }
}

TEST(Timeline, RejectsWrongSchemaVersionAndRaggedSeries) {
  EXPECT_FALSE(timelineFromJson("{\"schema_version\":99}").isOk());
  EXPECT_FALSE(timelineFromJson("not json").isOk());
  // Series length must agree with the time axis.
  const char* ragged =
      "{\"schema_version\":1,\"t_ms\":[0,1],\"series\":"
      "[{\"name\":\"x\",\"partition\":-1,\"kind\":\"gauge\","
      "\"values\":[1]}]}";
  EXPECT_FALSE(timelineFromJson(ragged).isOk());
}

TEST(Timeline, RenderCurvesListsProgressColumns) {
  const TelemetrySampler sampler(fixtureOptions());
  const Timeline timeline = buildTimeline(timelineFixture(), sampler);
  const std::string text = renderTimelineCurves(timeline);
  EXPECT_NE(text.find("t_ms"), std::string::npos);
  EXPECT_NE(text.find("rss_mb"), std::string::npos);
  EXPECT_NE(text.find("util"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace buffer saturation (satellite: silent truncation is now counted)
// ---------------------------------------------------------------------------

TEST(TraceSaturation, DropsAreCountedAndTracesStayValid) {
  auto& tracer = Tracer::instance();
  Tracer::setMaxEventsPerBufferForTest(8);
  tracer.start();
  const auto dropped_counter_before =
      MetricsRegistry::global().counter("trace.dropped_events").value();
  for (int i = 0; i < 64; ++i) {
    traceCounter("test.saturate", i);
  }
  tracer.stop();
  EXPECT_GT(Tracer::droppedEventCount(), 0u);
  EXPECT_GT(MetricsRegistry::global().counter("trace.dropped_events").value(),
            dropped_counter_before);
  // The truncated export is still well-formed JSON.
  EXPECT_TRUE(testing::isValidJson(tracer.toJson()));
  tracer.clear();
  Tracer::setMaxEventsPerBufferForTest(Tracer::kDefaultMaxEventsPerBuffer);
  // start() resets the drop count.
  tracer.start();
  EXPECT_EQ(Tracer::droppedEventCount(), 0u);
  tracer.clear();
}

// ---------------------------------------------------------------------------
// snapshotDelta gauge staleness (satellite: untouched gauges filtered)
// ---------------------------------------------------------------------------

TEST(SnapshotDelta, DropsGaugesNotTouchedDuringTheWindow) {
  auto& registry = MetricsRegistry::global();
  registry.gauge("telemetrytest.stale_gauge").set(42);
  registry.gauge("telemetrytest.live_gauge").set(1);
  const auto before = registry.snapshot();
  registry.gauge("telemetrytest.live_gauge").set(2);
  // Setting the same value still counts as a touch — liveness, not change.
  registry.gauge("telemetrytest.rewritten_gauge").set(0);
  const auto after = registry.snapshot();
  const auto delta = snapshotDelta(before, after);

  auto find = [&](const char* name) -> const MetricsRegistry::Point* {
    for (const auto& p : delta) {
      if (p.name == name) {
        return &p;
      }
    }
    return nullptr;
  };
  EXPECT_EQ(find("telemetrytest.stale_gauge"), nullptr);
  const auto* live = find("telemetrytest.live_gauge");
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->value, 2);
  EXPECT_NE(find("telemetrytest.rewritten_gauge"), nullptr);
}

}  // namespace
}  // namespace tsg
