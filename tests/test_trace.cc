#include "common/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "runtime/message_bus.h"
#include "test_util.h"

namespace tsg {
namespace {

// Every test drives the one process-wide tracer, so serialize state resets.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { Tracer::instance().clear(); }
  void TearDown() override { Tracer::instance().clear(); }
};

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  ASSERT_FALSE(Tracer::enabled());
  {
    TraceSpan span("test", "outer");
    traceCounter("test.counter", 7);
  }
  EXPECT_EQ(Tracer::instance().eventCount(), 0u);
}

TEST_F(TraceTest, SpansNestByTimestampContainment) {
  Tracer::instance().start();
  {
    TraceSpan outer("test", "outer");
    {
      TraceSpan inner("test", "inner", "k", 42);
    }
  }
  Tracer::instance().stop();

  const auto events = Tracer::instance().snapshotEvents();
  ASSERT_EQ(events.size(), 2u);
  const auto outer_it =
      std::find_if(events.begin(), events.end(), [](const TraceEvent& e) {
        return std::string(e.name) == "outer";
      });
  const auto inner_it =
      std::find_if(events.begin(), events.end(), [](const TraceEvent& e) {
        return std::string(e.name) == "inner";
      });
  ASSERT_NE(outer_it, events.end());
  ASSERT_NE(inner_it, events.end());
  EXPECT_EQ(outer_it->phase, 'X');
  // Inner interval lies inside the outer one.
  EXPECT_GE(inner_it->ts_ns, outer_it->ts_ns);
  EXPECT_LE(inner_it->ts_ns + inner_it->dur_ns,
            outer_it->ts_ns + outer_it->dur_ns);
  EXPECT_STREQ(inner_it->k1, "k");
  EXPECT_EQ(inner_it->v1, 42);
}

TEST_F(TraceTest, CounterPhase) {
  Tracer::instance().start();
  traceCounter("test.counter", 11);
  Tracer::instance().stop();

  const auto events = Tracer::instance().snapshotEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, 'C');
  EXPECT_EQ(events[0].v1, 11);
}

TEST_F(TraceTest, MergesBuffersAcrossThreads) {
  Tracer::instance().start();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 25;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([i] {
      Tracer::setCurrentThreadName("worker-" + std::to_string(i));
      for (int j = 0; j < kSpansPerThread; ++j) {
        TraceSpan span("test", "work", "i", i, "j", j);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  Tracer::instance().stop();

  EXPECT_EQ(Tracer::instance().eventCount(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  const auto json = Tracer::instance().toJson();
  EXPECT_TRUE(testing::isValidJson(json)) << json.substr(0, 400);
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_NE(json.find("worker-" + std::to_string(i)), std::string::npos);
  }
}

TEST_F(TraceTest, JsonExportIsWellFormedAndPerfettoShaped) {
  Tracer::instance().start();
  {
    TraceSpan span("cat", "na\"me\\with\nescapes", "x", -5);
    traceCounter("msgs", 123);
  }
  Tracer::instance().stop();

  const auto json = Tracer::instance().toJson();
  EXPECT_TRUE(testing::isValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

TEST_F(TraceTest, StartDropsEarlierEvents) {
  Tracer::instance().start();
  { TraceSpan span("test", "first"); }
  ASSERT_EQ(Tracer::instance().eventCount(), 1u);
  Tracer::instance().start();  // restart clears the first run's events
  { TraceSpan span("test", "second"); }
  Tracer::instance().stop();
  const auto events = Tracer::instance().snapshotEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "second");
}

TEST_F(TraceTest, StopGatesNewEvents) {
  Tracer::instance().start();
  { TraceSpan span("test", "kept"); }
  Tracer::instance().stop();
  { TraceSpan span("test", "dropped"); }
  traceCounter("test.counter", 1);
  EXPECT_EQ(Tracer::instance().eventCount(), 1u);
}

// --- Flow events --------------------------------------------------------

std::size_t countOccurrences(const std::string& text,
                             const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

TEST_F(TraceTest, FlowEventsShareOneIdAcrossStartStepFinish) {
  Tracer::instance().start();
  const std::uint64_t id = nextFlowId();
  traceFlowStart("test", "flow", id);
  traceFlowStep("test", "flow", id);
  traceFlowFinish("test", "flow", id);
  Tracer::instance().stop();

  const auto events = Tracer::instance().snapshotEvents();
  ASSERT_EQ(events.size(), 3u);
  std::string phases;
  for (const auto& e : events) {
    EXPECT_EQ(e.flow_id, id);
    phases += e.phase;
  }
  std::sort(phases.begin(), phases.end());
  EXPECT_EQ(phases, "fst");

  const auto json = Tracer::instance().toJson();
  EXPECT_TRUE(testing::isValidJson(json)) << json;
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  // The finish binds to its enclosing slice (Perfetto arrow-to-span).
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  // All three endpoints reference the same flow id.
  EXPECT_EQ(countOccurrences(json, "\"id\":" + std::to_string(id)), 3u);
}

TEST_F(TraceTest, DisabledTracerEmitsNoFlows) {
  const std::uint64_t id = nextFlowId();
  traceFlowStart("test", "flow", id);
  traceFlowStep("test", "flow", id);
  traceFlowFinish("test", "flow", id);
  EXPECT_EQ(Tracer::instance().eventCount(), 0u);
}

TEST_F(TraceTest, NextFlowIdIsUniqueAndNonzero) {
  const std::uint64_t a = nextFlowId();
  const std::uint64_t b = nextFlowId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST_F(TraceTest, BusBatchFlowPairsFromSendToDrain) {
  Tracer::instance().start();
  const auto hists_before = MetricsRegistry::global().histogramSnapshot();
  MessageBus bus(2);
  bus.send(0, 1, Message{});
  bus.send(0, 1, Message{});  // second send joins the open batch, same flow
  bus.deliver();

  auto& inbox = bus.inbox(1);
  ASSERT_EQ(inbox.batches().size(), 1u);
  ASSERT_EQ(inbox.flowIds().size(), 1u);
  const std::uint64_t id = inbox.flowIds()[0];
  EXPECT_NE(id, 0u);
  inbox.clear();  // drain point: emits the flow finish
  Tracer::instance().stop();

  const auto events = Tracer::instance().snapshotEvents();
  int starts = 0;
  int steps = 0;
  int finishes = 0;
  for (const auto& e : events) {
    if (e.flow_id != id) {
      continue;
    }
    starts += e.phase == 's';
    steps += e.phase == 't';
    finishes += e.phase == 'f';
  }
  EXPECT_EQ(starts, 1);    // one batch -> one flow, not one per message
  EXPECT_EQ(steps, 1);     // the deliver() hand-off
  EXPECT_EQ(finishes, 1);  // the drain

  const auto json = Tracer::instance().toJson();
  EXPECT_TRUE(testing::isValidJson(json)) << json.substr(0, 400);
  EXPECT_EQ(countOccurrences(json, "\"id\":" + std::to_string(id)), 3u);

  // The delivery also feeds the batch-size histogram: one batch, 2 messages.
  const auto delta = histogramDelta(
      hists_before, MetricsRegistry::global().histogramSnapshot());
  const auto it = std::find_if(
      delta.begin(), delta.end(),
      [](const auto& h) { return h.name == "bus.batch_messages"; });
  ASSERT_NE(it, delta.end());
  EXPECT_EQ(it->count, 1u);
  EXPECT_EQ(it->sum, 2u);
}

TEST_F(TraceTest, InjectedBatchesCarryNoFlow) {
  Tracer::instance().start();
  MessageBus bus(2);
  std::vector<Message> seeds(3);
  bus.inject(1, std::move(seeds));
  auto& inbox = bus.inbox(1);
  ASSERT_EQ(inbox.flowIds().size(), 1u);
  EXPECT_EQ(inbox.flowIds()[0], 0u);
  inbox.clear();
  Tracer::instance().stop();
  EXPECT_EQ(Tracer::instance().eventCount(), 0u);
}

// --- MetricsRegistry ----------------------------------------------------

TEST(MetricsRegistry, CounterAndGaugeRoundTrip) {
  MetricsRegistry registry;
  auto& c = registry.counter("c");
  c.increment();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  auto& g = registry.gauge("g");
  g.set(-3);
  EXPECT_EQ(g.value(), -3);
  // Same name resolves to the same cell.
  registry.counter("c").increment();
  EXPECT_EQ(c.value(), 6u);
}

TEST(MetricsRegistry, PartitionLabelsAreDistinctCells) {
  MetricsRegistry registry;
  registry.counter("packs", 0).add(2);
  registry.counter("packs", 1).add(7);
  registry.counter("packs").add(1);  // kNoPartition is its own cell
  EXPECT_EQ(registry.counter("packs", 0).value(), 2u);
  EXPECT_EQ(registry.counter("packs", 1).value(), 7u);
  EXPECT_EQ(registry.counter("packs").value(), 1u);
}

TEST(MetricsRegistry, SnapshotIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.counter("b", 1).add(1);
  registry.counter("a").add(2);
  registry.gauge("b", 0).set(9);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a");
  EXPECT_EQ(snap[1].name, "b");
  EXPECT_EQ(snap[1].partition, 0);
  EXPECT_TRUE(snap[1].is_gauge);
  EXPECT_EQ(snap[2].name, "b");
  EXPECT_EQ(snap[2].partition, 1);
  EXPECT_EQ(snap[2].value, 1);
}

TEST(MetricsRegistry, SnapshotDeltaDiffsCountersAndKeepsGauges) {
  MetricsRegistry registry;
  registry.counter("msgs").add(10);
  registry.counter("idle").add(3);
  registry.gauge("pack").set(1);
  const auto before = registry.snapshot();

  registry.counter("msgs").add(5);
  registry.counter("fresh").add(2);  // appears only after `before`
  registry.gauge("pack").set(4);
  const auto after = registry.snapshot();

  const auto delta = snapshotDelta(before, after);
  // "idle" didn't move → dropped; gauges keep the after value.
  ASSERT_EQ(delta.size(), 3u);
  EXPECT_EQ(delta[0].name, "fresh");
  EXPECT_EQ(delta[0].value, 2);
  EXPECT_EQ(delta[1].name, "msgs");
  EXPECT_EQ(delta[1].value, 5);
  EXPECT_EQ(delta[2].name, "pack");
  EXPECT_EQ(delta[2].value, 4);
}

TEST(MetricsRegistry, ResetZeroesButKeepsHandles) {
  MetricsRegistry registry;
  auto& c = registry.counter("c");
  c.add(42);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  c.increment();
  EXPECT_EQ(registry.counter("c").value(), 1u);
}

// --- Histogram ----------------------------------------------------------

TEST(Histogram, BucketMappingIsLogarithmic) {
  EXPECT_EQ(Histogram::bucketOf(0), 0);
  EXPECT_EQ(Histogram::bucketOf(1), 1);
  EXPECT_EQ(Histogram::bucketOf(2), 2);
  EXPECT_EQ(Histogram::bucketOf(3), 2);
  EXPECT_EQ(Histogram::bucketOf(4), 3);
  EXPECT_EQ(Histogram::bucketOf(~std::uint64_t{0}), 64);
  EXPECT_EQ(Histogram::bucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::bucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::bucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::bucketUpperBound(64), ~std::uint64_t{0});
}

TEST(Histogram, RecordQuantileAndMean) {
  MetricsRegistry registry;
  auto& h = registry.histogram("h");
  h.record(1);
  h.record(10);
  h.record(100);
  h.record(1000);
  const auto snaps = registry.histogramSnapshot();
  ASSERT_EQ(snaps.size(), 1u);
  const auto& snap = snaps[0];
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum, 1111u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_EQ(snap.quantile(0.0), 1u);   // rank 1 lands in bucket [1, 1]
  EXPECT_EQ(snap.quantile(0.5), 15u);  // rank 2 lands in bucket [8, 15]
  // Top bucket's upper bound (1023) is clamped to the observed max.
  EXPECT_EQ(snap.quantile(1.0), 1000u);
  EXPECT_NEAR(snap.mean(), 277.75, 1e-9);
}

TEST(Histogram, EmptyHistogramReportsZero) {
  MetricsRegistry registry;
  registry.histogram("h");
  const auto snaps = registry.histogramSnapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].count, 0u);
  EXPECT_EQ(snaps[0].quantile(0.5), 0u);
  EXPECT_EQ(snaps[0].mean(), 0.0);
}

TEST(Histogram, MergeAccumulatesShards) {
  MetricsRegistry registry;
  registry.histogram("a", 0).record(3);
  registry.histogram("a", 1).record(300);
  const auto snaps = registry.histogramSnapshot();
  ASSERT_EQ(snaps.size(), 2u);
  auto total = snaps[0];
  total.merge(snaps[1]);
  EXPECT_EQ(total.count, 2u);
  EXPECT_EQ(total.sum, 303u);
  EXPECT_EQ(total.max, 300u);
  EXPECT_EQ(total.quantile(1.0), 300u);
}

TEST(Histogram, DeltaSubtractsAndDropsIdleHistograms) {
  MetricsRegistry registry;
  registry.histogram("hot").record(2);
  registry.histogram("idle").record(5);
  const auto before = registry.histogramSnapshot();
  registry.histogram("hot").record(40);
  const auto after = registry.histogramSnapshot();
  const auto delta = histogramDelta(before, after);
  ASSERT_EQ(delta.size(), 1u);  // "idle" didn't move -> dropped
  EXPECT_EQ(delta[0].name, "hot");
  EXPECT_EQ(delta[0].count, 1u);
  EXPECT_EQ(delta[0].sum, 40u);
  EXPECT_EQ(delta[0].max, 40u);  // after-value (documented approximation)
  const auto bucket_of_2 =
      static_cast<std::size_t>(Histogram::bucketOf(2));
  const auto bucket_of_40 =
      static_cast<std::size_t>(Histogram::bucketOf(40));
  EXPECT_EQ(delta[0].buckets[bucket_of_2], 0u);
  EXPECT_EQ(delta[0].buckets[bucket_of_40], 1u);
}

TEST(Histogram, ResetZeroesButKeepsHandles) {
  MetricsRegistry registry;
  auto& h = registry.histogram("h");
  h.record(9);
  registry.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  h.record(2);
  EXPECT_EQ(registry.histogram("h").count(), 1u);
}

TEST(Histogram, ConcurrentRecordsAreLossless) {
  MetricsRegistry registry;
  auto& h = registry.histogram("c");
  constexpr int kThreads = 4;
  constexpr int kRecords = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&h] {
      for (int j = 0; j < kRecords; ++j) {
        h.record(static_cast<std::uint64_t>(j));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kRecords);
  EXPECT_EQ(h.max(), static_cast<std::uint64_t>(kRecords - 1));
}

TEST(Histogram, KindMismatchAborts) {
  MetricsRegistry registry;
  registry.counter("m");
  EXPECT_DEATH(registry.histogram("m"), "different kind");
}

TEST(MetricsRegistry, ConcurrentFeedsAreLossless) {
  MetricsRegistry registry;
  auto& c = registry.counter("hits");
  constexpr int kThreads = 4;
  constexpr int kAdds = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&c] {
      for (int j = 0; j < kAdds; ++j) {
        c.increment();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

}  // namespace
}  // namespace tsg
