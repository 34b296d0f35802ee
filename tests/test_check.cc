// BSP protocol checker tests: deliberately-broken drivers must be caught
// with precise diagnostics (rule, partition, superstep), and clean engine
// runs across all three engine families must produce zero violations.
#include "check/bsp_checker.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "core/engine.h"
#include "runtime/message_bus.h"
#include "test_util.h"
#include "vertexcentric/engine.h"
#include "vertexcentric/programs.h"
#include "vertexcentric/ti_engine.h"

namespace tsg {
namespace {

using testing::partitionGraph;
using testing::smallRoad;

// Enables checking and collects violations instead of aborting, restoring
// both on destruction. Tests assert on the collected rule ids and fields.
class ViolationCollector {
 public:
  ViolationCollector() {
    was_enabled_ = check::enabled();
    check::setEnabled(true);
    check::setViolationHandler(
        [this](const check::Violation& v) { violations_.push_back(v); });
  }
  ~ViolationCollector() {
    check::clearViolationHandler();
    check::setEnabled(was_enabled_);
  }

  [[nodiscard]] const std::vector<check::Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] bool sawRule(const std::string& rule) const {
    for (const auto& v : violations_) {
      if (v.rule == rule) {
        return true;
      }
    }
    return false;
  }
  [[nodiscard]] const check::Violation* firstOf(
      const std::string& rule) const {
    for (const auto& v : violations_) {
      if (v.rule == rule) {
        return &v;
      }
    }
    return nullptr;
  }

 private:
  std::vector<check::Violation> violations_;
  bool was_enabled_ = false;
};

Message makeMessage(SubgraphId src, SubgraphId dst) {
  Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.payload = {1, 2, 3};
  return msg;
}

// --- broken-driver fixtures ------------------------------------------------

TEST(BspChecker, SendOutsideComputeIsCaught) {
  ViolationCollector collector;
  MessageBus bus(2);
  check::BspChecker checker(2);
  bus.attachChecker(&checker);
  checker.beginTimestep(0);
  checker.beginSuperstep(0);

  // The broken driver: partition 1 sends without having entered compute
  // (e.g. a coordinator-side send, or a worker touching the bus after the
  // barrier).
  bus.send(1, 0, makeMessage(1, 0));

  ASSERT_TRUE(collector.sawRule("send-outside-compute"));
  const auto* v = collector.firstOf("send-outside-compute");
  EXPECT_EQ(v->partition, 1u);
  EXPECT_EQ(v->timestep, 0);
  EXPECT_EQ(v->superstep, 0);
  EXPECT_NE(v->detail.find("partition 1"), std::string::npos);
  EXPECT_NE(v->detail.find("superstep 0"), std::string::npos);
}

TEST(BspChecker, DeliverDuringComputeIsCaught) {
  ViolationCollector collector;
  MessageBus bus(2);
  check::BspChecker checker(2);
  bus.attachChecker(&checker);
  checker.beginTimestep(0);
  checker.beginSuperstep(0);

  checker.enterCompute(0);
  // The broken driver: the coordinator runs the barrier delivery while
  // partition 0 is still computing.
  (void)bus.deliver();

  ASSERT_TRUE(collector.sawRule("deliver-during-compute"));
  EXPECT_EQ(collector.firstOf("deliver-during-compute")->partition, 0u);
}

TEST(BspChecker, InjectDuringComputeIsCaught) {
  ViolationCollector collector;
  MessageBus bus(2);
  check::BspChecker checker(2);
  bus.attachChecker(&checker);
  checker.beginTimestep(0);
  checker.enterCompute(1);

  std::vector<Message> seeds;
  seeds.push_back(makeMessage(0, 0));
  bus.inject(0, std::move(seeds));

  ASSERT_TRUE(collector.sawRule("inject-during-compute"));
}

TEST(BspChecker, SameSuperstepReadIsCaught) {
  ViolationCollector collector;
  MessageBus bus(2);
  check::BspChecker checker(2);
  bus.attachChecker(&checker);
  checker.beginTimestep(0);
  checker.beginSuperstep(0);

  checker.enterCompute(0);
  bus.send(0, 1, makeMessage(0, 1));
  checker.exitCompute(0);
  (void)bus.deliver();  // stamps partition 1's inbox with superstep 0

  // The broken driver: the batch is consumed without advancing to
  // superstep 1 first — reading traffic sent in the *same* superstep.
  checker.enterCompute(1);
  bus.inbox(1).clear();

  ASSERT_TRUE(collector.sawRule("same-superstep-read"));
  const auto* v = collector.firstOf("same-superstep-read");
  EXPECT_EQ(v->partition, 1u);
  EXPECT_EQ(v->superstep, 0);
}

TEST(BspChecker, LegalNextSuperstepReadIsClean) {
  ViolationCollector collector;
  MessageBus bus(2);
  check::BspChecker checker(2);
  bus.attachChecker(&checker);
  checker.beginTimestep(0);
  checker.beginSuperstep(0);

  checker.enterCompute(0);
  bus.send(0, 1, makeMessage(0, 1));
  checker.exitCompute(0);
  (void)bus.deliver();

  checker.beginSuperstep(1);
  checker.enterCompute(1);
  bus.inbox(1).clear();
  checker.exitCompute(1);
  (void)bus.deliver();
  checker.endRun();

  EXPECT_TRUE(collector.violations().empty());
}

TEST(BspChecker, AbandonedMessagesBreakConservation) {
  ViolationCollector collector;
  MessageBus bus(2);
  check::BspChecker checker(2);
  bus.attachChecker(&checker);
  checker.beginTimestep(0);
  checker.beginSuperstep(0);

  checker.enterCompute(0);
  bus.send(0, 1, makeMessage(0, 1));
  checker.exitCompute(0);
  (void)bus.deliver();

  // The broken driver: superstep 1 runs but partition 1 never drains its
  // inbox; the next barrier silently recycles the batch.
  checker.beginSuperstep(1);
  checker.enterCompute(1);
  checker.exitCompute(1);
  (void)bus.deliver();

  ASSERT_TRUE(collector.sawRule("conservation-consumed"));
  EXPECT_NE(collector.firstOf("conservation-consumed")
                ->detail.find("abandoned"),
            std::string::npos);
}

TEST(BspChecker, FabricLosingMessagesBreaksConservation) {
  ViolationCollector collector;
  check::BspChecker checker(2);
  checker.beginTimestep(0);
  checker.beginSuperstep(0);

  // Simulated buggy fabric: a worker sent one message but the barrier
  // reports zero delivered.
  checker.enterCompute(0);
  checker.onSend(0, 1, 16);
  checker.exitCompute(0);
  checker.onDeliver(/*messages=*/0, /*bytes=*/0, 0, 0);

  ASSERT_TRUE(collector.sawRule("conservation-delivered"));
}

TEST(BspChecker, ComputeOnHaltedIsCaught) {
  ViolationCollector collector;
  check::BspChecker checker(2);
  checker.beginTimestep(2);
  checker.beginSuperstep(3);

  // Simulated buggy engine: unit 7 was halted, has no pending messages and
  // it is not superstep 0 — yet the engine computes it.
  checker.onComputeUnit(1, 7, /*was_halted=*/true, /*reactivated=*/false);

  ASSERT_TRUE(collector.sawRule("compute-on-halted"));
  const auto* v = collector.firstOf("compute-on-halted");
  EXPECT_EQ(v->partition, 1u);
  EXPECT_EQ(v->timestep, 2);
  EXPECT_EQ(v->superstep, 3);
}

TEST(BspChecker, BarrierPairingViolationsAreCaught) {
  ViolationCollector collector;
  check::BspChecker checker(2);
  checker.beginTimestep(0);
  checker.beginSuperstep(0);

  checker.enterCompute(0);
  checker.enterCompute(0);  // double enter
  ASSERT_TRUE(collector.sawRule("barrier-double-enter"));

  checker.exitCompute(1);  // exit without enter
  ASSERT_TRUE(collector.sawRule("barrier-exit-without-enter"));
}

TEST(BspChecker, ResetForgivesInFlightTraffic) {
  ViolationCollector collector;
  MessageBus bus(2);
  check::BspChecker checker(2);
  bus.attachChecker(&checker);
  checker.beginTimestep(0);
  checker.beginSuperstep(0);

  checker.enterCompute(0);
  bus.send(0, 1, makeMessage(0, 1));
  checker.exitCompute(0);
  (void)bus.deliver();
  // Superstep-cap abort: the engine clears the fabric mid-flight.
  bus.clearAll();
  checker.endRun();

  EXPECT_TRUE(collector.violations().empty());
}

TEST(BspChecker, RecoveryRePairsKilledWorkerAndForgivesDroppedTraffic) {
  ViolationCollector collector;
  MessageBus bus(2);
  check::BspChecker checker(2);
  bus.attachChecker(&checker);
  checker.beginTimestep(0);
  checker.beginSuperstep(0);

  // Partition 0 sends and finishes its round; partition 1 is killed inside
  // compute — round entered, never exited — with the batch still in flight.
  checker.enterCompute(0);
  bus.send(0, 1, makeMessage(0, 1));
  checker.exitCompute(0);
  checker.enterCompute(1);  // worker dies here

  // The engine rolls back to the last checkpoint: the open phase must be
  // closed (no barrier-exit-without-enter / double-enter on replay) and the
  // dropped traffic forgiven.
  checker.onRecovery();
  bus.clearAll();

  // Replay of the timestep: carried messages re-injected from the
  // checkpoint, then the same supersteps run cleanly to completion.
  checker.beginTimestep(0);
  std::vector<Message> carried;
  carried.push_back(makeMessage(0, 0));
  bus.inject(0, std::move(carried));
  checker.beginSuperstep(0);
  checker.enterCompute(0);
  bus.inbox(0).clear();  // consume the replayed carried batch
  bus.send(0, 1, makeMessage(0, 1));
  checker.exitCompute(0);
  checker.enterCompute(1);
  checker.exitCompute(1);
  (void)bus.deliver();

  checker.beginSuperstep(1);
  checker.enterCompute(1);
  bus.inbox(1).clear();
  checker.exitCompute(1);
  (void)bus.deliver();
  checker.endRun();

  EXPECT_TRUE(collector.violations().empty());
}

TEST(BspChecker, ReplayedDeliveryAfterRecoveryDoesNotTripConservation) {
  ViolationCollector collector;
  MessageBus bus(2);
  check::BspChecker checker(2);
  bus.attachChecker(&checker);
  checker.beginTimestep(1);
  checker.beginSuperstep(0);

  checker.enterCompute(0);
  bus.send(0, 1, makeMessage(0, 1));
  checker.exitCompute(0);
  (void)bus.deliver();  // batch delivered to partition 1, not yet drained

  // Fault before partition 1 drains it; the engine drops the fabric and
  // rolls back.
  checker.onRecovery();
  bus.clearAll();

  // Replay: the same superstep runs again and this time completes. The
  // re-delivered batch must count as the first (only) delivery — not as a
  // duplicate of the aborted attempt's traffic.
  checker.beginTimestep(1);
  checker.beginSuperstep(0);
  checker.enterCompute(0);
  bus.send(0, 1, makeMessage(0, 1));
  checker.exitCompute(0);
  (void)bus.deliver();

  checker.beginSuperstep(1);
  checker.enterCompute(1);
  bus.inbox(1).clear();
  checker.exitCompute(1);
  (void)bus.deliver();
  checker.endRun();

  EXPECT_TRUE(collector.violations().empty());
}

// --- clean runs across the engine families ---------------------------------

TEST(BspChecker, CleanTiBspRunHasNoViolations) {
  ViolationCollector collector;
  auto tmpl = smallRoad(4, 4);
  auto pg = partitionGraph(tmpl, 2);
  TimeSeriesCollection collection(tmpl, /*t0=*/0, /*delta=*/5);
  for (int t = 0; t < 3; ++t) {
    collection.appendInstance();
  }
  DirectInstanceProvider provider(pg, collection);

  // A ping-pong program: every subgraph messages a peer for two supersteps,
  // plus inter-timestep traffic — exercising send, deliver, consume, inject
  // and halting under the checker.
  class PingPong final : public TiBspProgram {
   public:
    void compute(SubgraphContext& ctx) override {
      if (ctx.superstep() < 2) {
        const SubgraphId peer = (ctx.subgraphId() + 1) %
                                ctx.partitionedGraph().numSubgraphs();
        ctx.sendToSubgraph(peer, {7});
      }
      ctx.sendToNextTimestep({9});
      ctx.voteToHalt();
    }
    void endOfTimestep(SubgraphContext&) override {}
    void merge(SubgraphContext&) override {}
  };

  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  TiBspEngine engine(pg, provider);
  const auto result = engine.run(
      [](PartitionId) { return std::make_unique<PingPong>(); }, config);
  EXPECT_EQ(result.timesteps_executed, 3);
  for (const auto& v : collector.violations()) {
    ADD_FAILURE() << "unexpected violation: " << v.detail;
  }
}

TEST(BspChecker, CleanVertexCentricRunHasNoViolations) {
  ViolationCollector collector;
  auto tmpl = smallRoad(4, 4);
  auto pg = partitionGraph(tmpl, 2);

  vertexcentric::SsspVertexProgram program(0);
  vertexcentric::VertexCentricEngine engine(pg);
  const auto result =
      engine.run(program, vertexcentric::VcConfig{},
                 [](VertexIndex) { return vertexcentric::kInf; });
  EXPECT_EQ(result.values[0], 0.0);
  for (const auto& v : collector.violations()) {
    ADD_FAILURE() << "unexpected violation: " << v.detail;
  }
}

TEST(BspChecker, CleanTemporalVertexRunHasNoViolations) {
  ViolationCollector collector;
  auto tmpl = smallRoad(4, 4);
  auto pg = partitionGraph(tmpl, 2);
  TimeSeriesCollection collection(tmpl, /*t0=*/0, /*delta=*/5);
  for (int t = 0; t < 2; ++t) {
    collection.appendInstance();
  }
  DirectInstanceProvider provider(pg, collection);

  // Flood + carry: every vertex pings its neighbours at superstep 0 and
  // defers one value to the next timestep (exercises the injection path).
  class Flood final : public vertexcentric::TemporalVertexProgram {
   public:
    void compute(vertexcentric::TemporalVertexContext& ctx) override {
      if (ctx.superstep() == 0) {
        for (const auto& oe : ctx.graphTemplate().outEdges(ctx.vertex())) {
          ctx.sendTo(oe.dst, 1.0);
        }
        ctx.sendToNextTimestep(ctx.vertex(), 2.0);
      }
      ctx.voteToHalt();
    }
    void endOfTimestep(VertexIndex, Timestep) override {}
  };

  Flood program;
  vertexcentric::TemporalVcConfig config;
  vertexcentric::TemporalVertexEngine engine(pg, provider);
  const auto result = engine.run(program, config);
  EXPECT_EQ(result.timesteps_executed, 2);
  for (const auto& v : collector.violations()) {
    ADD_FAILURE() << "unexpected violation: " << v.detail;
  }
}

TEST(BspChecker, DisabledCheckerCostsNothingAndReportsNothing) {
  // No collector: checking stays off, the bus has no checker attached, and
  // a protocol-violating sequence passes silently (the production default).
  if (check::enabled()) {
    GTEST_SKIP() << "checking is compiled on by default in this build";
  }
  MessageBus bus(2);
  bus.send(0, 1, makeMessage(0, 1));  // no enterCompute — would violate
  (void)bus.deliver();
  SUCCEED();
}

}  // namespace
}  // namespace tsg
