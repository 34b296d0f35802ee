// Semantics tests for the TI-BSP engine: message timing, halting,
// inter-timestep passing, merge, patterns, aggregators, counters.
#include "core/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/codec.h"
#include "gofs/checkpoint.h"
#include "runtime/fault_injector.h"
#include "test_util.h"

namespace tsg {
namespace {

using testing::partitionGraph;
using testing::smallRoad;

struct EngineFixture {
  explicit EngineFixture(std::uint32_t k = 2, std::uint32_t timesteps = 3)
      : tmpl(smallRoad(4, 4)),
        pg(partitionGraph(tmpl, k)),
        collection(tmpl, /*t0=*/0, /*delta=*/5) {
    for (std::uint32_t t = 0; t < timesteps; ++t) {
      collection.appendInstance();
    }
    provider = std::make_unique<DirectInstanceProvider>(pg, collection);
  }

  GraphTemplatePtr tmpl;
  PartitionedGraph pg;
  TimeSeriesCollection collection;
  std::unique_ptr<DirectInstanceProvider> provider;
};

// Adapts a lambda to a TiBspProgram.
template <typename ComputeFn, typename EotFn, typename MergeFn>
class LambdaProgram final : public TiBspProgram {
 public:
  LambdaProgram(ComputeFn compute, EotFn eot, MergeFn merge)
      : compute_(std::move(compute)),
        eot_(std::move(eot)),
        merge_(std::move(merge)) {}
  void compute(SubgraphContext& ctx) override { compute_(ctx); }
  void endOfTimestep(SubgraphContext& ctx) override { eot_(ctx); }
  void merge(SubgraphContext& ctx) override { merge_(ctx); }

 private:
  ComputeFn compute_;
  EotFn eot_;
  MergeFn merge_;
};

auto noop = [](SubgraphContext&) {};

template <typename C, typename E = decltype(noop), typename M = decltype(noop)>
ProgramFactory factoryOf(C compute, E eot = noop, M merge = noop) {
  return [=](PartitionId) {
    return std::make_unique<LambdaProgram<C, E, M>>(compute, eot, merge);
  };
}

TEST(Engine, ComputeInvokedForAllSubgraphsAtSuperstepZero) {
  EngineFixture fx(2, 2);
  std::mutex mutex;
  std::set<std::pair<Timestep, SubgraphId>> seen;
  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  TiBspEngine engine(fx.pg, *fx.provider);
  const auto result = engine.run(factoryOf([&](SubgraphContext& ctx) {
                                   if (ctx.superstep() == 0) {
                                     std::lock_guard lock(mutex);
                                     seen.insert(
                                         {ctx.timestep(), ctx.subgraphId()});
                                   }
                                   ctx.voteToHalt();
                                 }),
                                 config);
  EXPECT_EQ(result.timesteps_executed, 2);
  EXPECT_EQ(seen.size(), 2 * fx.pg.numSubgraphs());
}

TEST(Engine, MessagesArriveExactlyOneSuperstepLater) {
  EngineFixture fx(2, 1);
  const SubgraphId target = fx.pg.numSubgraphs() - 1;
  std::atomic<int> received_superstep{-1};
  std::atomic<int> received_count{0};

  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  TiBspEngine engine(fx.pg, *fx.provider);
  engine.run(factoryOf([&](SubgraphContext& ctx) {
               if (ctx.superstep() == 0 && ctx.subgraphId() == 0) {
                 ctx.sendToSubgraph(target, {42});
               }
               for (const Message& msg : ctx.messages()) {
                 EXPECT_EQ(ctx.subgraphId(), target);
                 EXPECT_EQ(msg.src, 0u);
                 EXPECT_EQ(msg.dst, target);
                 EXPECT_EQ(msg.payload[0], 42);
                 received_superstep = ctx.superstep();
                 received_count.fetch_add(1);
               }
               ctx.voteToHalt();
             }),
             config);
  EXPECT_EQ(received_superstep.load(), 1);
  EXPECT_EQ(received_count.load(), 1);
}

TEST(Engine, BspHaltsOnlyWhenQuiescent) {
  // Subgraph 0 keeps a ping-pong alive for 5 supersteps even though every
  // subgraph votes to halt each time: pending messages reactivate them.
  EngineFixture fx(2, 1);
  const SubgraphId peer = fx.pg.numSubgraphs() - 1;
  ASSERT_NE(peer, 0u);
  std::atomic<int> max_superstep{0};

  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  TiBspEngine engine(fx.pg, *fx.provider);
  engine.run(factoryOf([&](SubgraphContext& ctx) {
               max_superstep = std::max(max_superstep.load(),
                                        ctx.superstep());
               if (ctx.superstep() < 5) {
                 if (ctx.superstep() == 0 && ctx.subgraphId() == 0) {
                   ctx.sendToSubgraph(peer, {1});
                 }
                 for (const Message& msg : ctx.messages()) {
                   const SubgraphId reply_to =
                       ctx.subgraphId() == 0 ? peer : 0;
                   ctx.sendToSubgraph(reply_to, msg.payload);
                 }
               }
               ctx.voteToHalt();
             }),
             config);
  EXPECT_GE(max_superstep.load(), 5);
}

TEST(Engine, SequentialPatternPassesStateBetweenTimesteps) {
  EngineFixture fx(2, 3);
  std::mutex mutex;
  std::vector<std::pair<Timestep, Timestep>> arrivals;  // (now, origin)

  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  TiBspEngine engine(fx.pg, *fx.provider);
  engine.run(
      factoryOf(
          [&](SubgraphContext& ctx) {
            if (ctx.superstep() == 0) {
              for (const Message& msg : ctx.messages()) {
                EXPECT_EQ(msg.dst, ctx.subgraphId());
                std::lock_guard lock(mutex);
                arrivals.push_back({ctx.timestep(), msg.origin_timestep});
              }
            }
            ctx.voteToHalt();
          },
          [&](SubgraphContext& ctx) {
            // Every subgraph forwards a token to its next instance.
            ctx.sendToNextTimestep({7});
          }),
      config);
  // Tokens sent at t flow to t+1: timesteps 1 and 2 each receive one per
  // subgraph (the send after the last timestep is dropped).
  ASSERT_EQ(arrivals.size(), 2 * fx.pg.numSubgraphs());
  for (const auto& [now, origin] : arrivals) {
    EXPECT_EQ(origin + 1, now);
  }
}

TEST(Engine, SendToSubgraphInNextTimestepRoutesAcrossSpaceAndTime) {
  EngineFixture fx(2, 2);
  const SubgraphId target = fx.pg.numSubgraphs() - 1;
  std::atomic<int> hits{0};

  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  TiBspEngine engine(fx.pg, *fx.provider);
  engine.run(factoryOf([&](SubgraphContext& ctx) {
               if (ctx.timestep() == 0 && ctx.superstep() == 0 &&
                   ctx.subgraphId() == 0) {
                 ctx.sendToSubgraphInNextTimestep(target, {9});
               }
               if (ctx.timestep() == 1) {
                 for (const Message& msg : ctx.messages()) {
                   EXPECT_EQ(ctx.subgraphId(), target);
                   EXPECT_EQ(msg.payload[0], 9);
                   EXPECT_EQ(msg.origin_timestep, 0);
                   hits.fetch_add(1);
                 }
               }
               ctx.voteToHalt();
             }),
             config);
  EXPECT_EQ(hits.load(), 1);
}

TEST(Engine, InterTimestepSendRejectedOutsideSequentialPattern) {
  EngineFixture fx(2, 2);
  TiBspConfig config;
  config.pattern = Pattern::kIndependent;
  TiBspEngine engine(fx.pg, *fx.provider);
  EXPECT_DEATH(engine.run(factoryOf([&](SubgraphContext& ctx) {
                            ctx.sendToNextTimestep({1});
                            ctx.voteToHalt();
                          }),
                          config),
               "sequentially");
}

TEST(Engine, InputMessagesSeedFirstTimestepForSequential) {
  EngineFixture fx(2, 2);
  std::mutex mutex;
  std::vector<Timestep> arrived_at;

  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  Message input;
  input.dst = 0;
  input.payload = {5};
  config.input_messages.push_back(input);

  TiBspEngine engine(fx.pg, *fx.provider);
  engine.run(factoryOf([&](SubgraphContext& ctx) {
               for (const Message& msg : ctx.messages()) {
                 EXPECT_EQ(msg.payload[0], 5);
                 std::lock_guard lock(mutex);
                 arrived_at.push_back(ctx.timestep());
               }
               ctx.voteToHalt();
             }),
             config);
  ASSERT_EQ(arrived_at.size(), 1u);
  EXPECT_EQ(arrived_at[0], 0);
}

TEST(Engine, InputMessagesSeedEveryTimestepForIndependent) {
  EngineFixture fx(2, 3);
  std::mutex mutex;
  std::multiset<Timestep> arrived_at;

  TiBspConfig config;
  config.pattern = Pattern::kIndependent;
  Message input;
  input.dst = 0;
  input.payload = {5};
  config.input_messages.push_back(input);

  TiBspEngine engine(fx.pg, *fx.provider);
  engine.run(factoryOf([&](SubgraphContext& ctx) {
               for (const Message& msg : ctx.messages()) {
                 (void)msg;
                 std::lock_guard lock(mutex);
                 arrived_at.insert(ctx.timestep());
               }
               ctx.voteToHalt();
             }),
             config);
  EXPECT_EQ(arrived_at.size(), 3u);
  EXPECT_EQ(arrived_at.count(0), 1u);
  EXPECT_EQ(arrived_at.count(1), 1u);
  EXPECT_EQ(arrived_at.count(2), 1u);
}

TEST(Engine, WhileModeStopsWhenAllVoteAndNoPendingMessages) {
  EngineFixture fx(2, 10);
  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  config.while_mode = true;

  TiBspEngine engine(fx.pg, *fx.provider);
  const auto result =
      engine.run(factoryOf(
                     [&](SubgraphContext& ctx) {
                       if (ctx.timestep() >= 2) {
                         ctx.voteToHaltTimestep();
                       }
                       ctx.voteToHalt();
                     },
                     [&](SubgraphContext& ctx) {
                       if (ctx.timestep() < 2) {
                         ctx.sendToNextTimestep({1});
                       }
                     }),
                 config);
  // Timestep 2 is the first where everyone votes and nothing is pending.
  EXPECT_EQ(result.timesteps_executed, 3);
}

TEST(Engine, EventuallyDependentMergeReceivesOriginTimesteps) {
  EngineFixture fx(2, 3);
  std::mutex mutex;
  std::map<SubgraphId, std::set<Timestep>> merge_origins;

  TiBspConfig config;
  config.pattern = Pattern::kEventuallyDependent;
  TiBspEngine engine(fx.pg, *fx.provider);
  engine.run(factoryOf(
                 [&](SubgraphContext& ctx) {
                   if (ctx.superstep() == 0) {
                     ctx.sendMessageToMerge(
                         {static_cast<std::uint8_t>(ctx.timestep())});
                   }
                   ctx.voteToHalt();
                 },
                 noop,
                 [&](SubgraphContext& ctx) {
                   for (const Message& msg : ctx.messages()) {
                     EXPECT_EQ(msg.dst, ctx.subgraphId());
                     EXPECT_EQ(msg.payload[0],
                               static_cast<std::uint8_t>(msg.origin_timestep));
                     std::lock_guard lock(mutex);
                     merge_origins[ctx.subgraphId()].insert(
                         msg.origin_timestep);
                   }
                   ctx.voteToHalt();
                 }),
             config);
  ASSERT_EQ(merge_origins.size(), fx.pg.numSubgraphs());
  for (const auto& [sg, origins] : merge_origins) {
    EXPECT_EQ(origins, (std::set<Timestep>{0, 1, 2})) << sg;
  }
}

// An independent-pattern program with per-timestep results (topn, through
// the registry) recovers from a killed worker to the fault-free digest.
TEST(Engine, CheckpointStoreRecoversTopN) {
  const AlgorithmEntry& topn = testing::algorithm("topn");
  const testing::AlgoEnv env = testing::envFor(topn);
  auto& injector = fault::FaultInjector::global();
  injector.disarm();
  const AlgorithmRun baseline = env.run(topn);

  fault::FaultSpec kill;
  kill.site = fault::Site::kCompute;
  kill.action = fault::Action::kKill;
  kill.partition = 1;
  kill.timestep = 1;
  MemoryCheckpointStore store;
  AlgorithmRequest request;
  request.checkpoint_store = &store;
  injector.arm({kill}, 7);
  const AlgorithmRun faulted = env.run(topn, request);
  injector.disarm();
  EXPECT_GE(testing::metricTotal(faulted.stats, "engine.recoveries"), 1);
  EXPECT_GT(store.saves(), 0u);
  EXPECT_EQ(faulted.digest, baseline.digest);
}

// Without a checkpoint store a killed worker ends the run with the engine's
// own diagnostic, never by an exception escaping a worker thread.
TEST(Engine, KillWithoutCheckpointStoreFailsWithEngineMessage) {
  const AlgorithmEntry& topn = testing::algorithm("topn");
  const testing::AlgoEnv env = testing::envFor(topn);
  fault::FaultSpec kill;
  kill.site = fault::Site::kCompute;
  kill.action = fault::Action::kKill;
  kill.partition = 1;
  kill.timestep = 2;
  EXPECT_DEATH(
      {
        fault::FaultInjector::global().arm({kill}, 7);
        (void)env.run(topn);
      },
      "worker fault without a checkpoint store");
}

TEST(Engine, AggregatorVisibleNextTimestep) {
  EngineFixture fx(2, 3);
  std::mutex mutex;
  std::map<Timestep, std::uint64_t> seen;

  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  TiBspEngine engine(fx.pg, *fx.provider);
  engine.run(factoryOf(
                 [&](SubgraphContext& ctx) {
                   if (ctx.superstep() == 0) {
                     {
                       std::lock_guard lock(mutex);
                       seen.emplace(ctx.timestep(),
                                    ctx.aggregatedU64("tokens"));
                     }
                     ctx.aggregate("tokens", 1);
                   }
                   ctx.voteToHalt();
                 }),
             config);
  // t=0 sees nothing; t sees the number of subgraphs (each aggregated 1).
  EXPECT_EQ(seen[0], 0u);
  EXPECT_EQ(seen[1], fx.pg.numSubgraphs());
  EXPECT_EQ(seen[2], fx.pg.numSubgraphs());
}

TEST(Engine, CountersRecordedPerTimestepAndPartition) {
  EngineFixture fx(2, 2);
  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  TiBspEngine engine(fx.pg, *fx.provider);
  const auto result =
      engine.run(factoryOf([&](SubgraphContext& ctx) {
                   if (ctx.superstep() == 0) {
                     ctx.addCounter("touched", 2);
                   }
                   ctx.voteToHalt();
                 }),
                 config);
  EXPECT_EQ(result.stats.counterTotal("touched"),
            2ull * 2 * fx.pg.numSubgraphs());
  const auto& rows = result.stats.counters().at("touched");
  ASSERT_EQ(rows.size(), 2u);
}

TEST(Engine, EndOfTimestepRunsOncePerSubgraphPerTimestep) {
  EngineFixture fx(3, 2);
  std::mutex mutex;
  std::map<std::pair<Timestep, SubgraphId>, int> eot_calls;

  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  TiBspEngine engine(fx.pg, *fx.provider);
  engine.run(
      factoryOf([](SubgraphContext& ctx) { ctx.voteToHalt(); },
                [&](SubgraphContext& ctx) {
                  std::lock_guard lock(mutex);
                  ++eot_calls[{ctx.timestep(), ctx.subgraphId()}];
                }),
      config);
  EXPECT_EQ(eot_calls.size(), 2 * fx.pg.numSubgraphs());
  for (const auto& [key, count] : eot_calls) {
    EXPECT_EQ(count, 1) << key.first << "/" << key.second;
  }
}

TEST(Engine, MaintenancePeriodEmitsMarkedRecords) {
  EngineFixture fx(2, 5);
  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  config.maintenance_period = 2;
  TiBspEngine engine(fx.pg, *fx.provider);
  const auto result = engine.run(
      factoryOf([](SubgraphContext& ctx) { ctx.voteToHalt(); }), config);
  int maintenance_rounds = 0;
  for (const auto& rec : result.stats.supersteps()) {
    if (rec.superstep == -1) {
      ++maintenance_rounds;
    }
  }
  EXPECT_EQ(maintenance_rounds, 2);  // before timesteps 2 and 4
}

TEST(Engine, StatsCoverEveryExecutedSuperstep) {
  EngineFixture fx(2, 2);
  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  TiBspEngine engine(fx.pg, *fx.provider);
  const auto result = engine.run(
      factoryOf([](SubgraphContext& ctx) { ctx.voteToHalt(); }), config);
  // Per timestep: one compute superstep + one EndOfTimestep record.
  EXPECT_EQ(result.stats.totalSupersteps(), 4u);
  EXPECT_GT(result.stats.wallClockNs(), 0);
  for (const auto& rec : result.stats.supersteps()) {
    EXPECT_EQ(rec.parts.size(), fx.pg.numPartitions());
  }
}

TEST(Engine, OutputsCollectedFromAllPartitions) {
  EngineFixture fx(3, 1);
  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  TiBspEngine engine(fx.pg, *fx.provider);
  const auto result = engine.run(factoryOf([](SubgraphContext& ctx) {
                                   if (ctx.superstep() == 0) {
                                     ctx.output("sg" + std::to_string(
                                                           ctx.subgraphId()));
                                   }
                                   ctx.voteToHalt();
                                 }),
                                 config);
  EXPECT_EQ(result.outputs.size(), fx.pg.numSubgraphs());
}

TEST(Engine, ToleratesAnEmptyPartition) {
  // Every vertex in partition 0; partition 1 owns nothing (no subgraphs).
  auto tmpl = smallRoad(3, 3);
  const PartitionAssignment assignment(tmpl->numVertices(), 0);
  auto pg_result = PartitionedGraph::build(tmpl, assignment, 2);
  ASSERT_TRUE(pg_result.isOk());
  const auto& pg = pg_result.value();
  TimeSeriesCollection coll(tmpl, 0, 5);
  coll.appendInstance();
  DirectInstanceProvider provider(pg, coll);

  std::atomic<int> computes{0};
  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  TiBspEngine engine(pg, provider);
  const auto result = engine.run(factoryOf([&](SubgraphContext& ctx) {
                                   computes.fetch_add(1);
                                   ctx.voteToHalt();
                                 }),
                                 config);
  EXPECT_EQ(result.timesteps_executed, 1);
  EXPECT_EQ(computes.load(), static_cast<int>(pg.numSubgraphs()));
}

TEST(Engine, ZeroTimestepsIsANoop) {
  EngineFixture fx(2, 3);
  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  config.num_timesteps = 0;
  TiBspEngine engine(fx.pg, *fx.provider);
  const auto result = engine.run(
      factoryOf([](SubgraphContext&) { FAIL() << "must not run"; }), config);
  EXPECT_EQ(result.timesteps_executed, 0);
  EXPECT_EQ(result.stats.totalSupersteps(), 0u);
}

TEST(Engine, FirstTimestepOffsetRunsTail) {
  EngineFixture fx(2, 5);
  std::mutex mutex;
  std::set<Timestep> seen;
  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  config.first_timestep = 3;
  TiBspEngine engine(fx.pg, *fx.provider);
  engine.run(factoryOf([&](SubgraphContext& ctx) {
               {
                 std::lock_guard lock(mutex);
                 seen.insert(ctx.timestep());
               }
               ctx.voteToHalt();
             }),
             config);
  EXPECT_EQ(seen, (std::set<Timestep>{3, 4}));
}

TEST(Engine, SuperstepCapBreaksInfiniteLoops) {
  EngineFixture fx(2, 1);
  const SubgraphId peer = fx.pg.numSubgraphs() - 1;
  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  config.max_supersteps_per_timestep = 5;
  TiBspEngine engine(fx.pg, *fx.provider);
  const auto result =
      engine.run(factoryOf([&](SubgraphContext& ctx) {
                   // Never quiesces: everyone keeps messaging.
                   ctx.sendToSubgraph(ctx.subgraphId() == 0 ? peer : 0, {1});
                   ctx.voteToHalt();
                 }),
                 config);
  // The cap ends the timestep; one extra record for EndOfTimestep.
  EXPECT_LE(result.stats.totalSupersteps(), 6u);
  EXPECT_EQ(result.timesteps_executed, 1);
}

TEST(Engine, MergeOnlyRunsForEventuallyDependent) {
  EngineFixture fx(2, 2);
  std::atomic<int> merges{0};
  auto factory = factoryOf(
      [](SubgraphContext& ctx) { ctx.voteToHalt(); }, noop,
      [&](SubgraphContext& ctx) {
        merges.fetch_add(1);
        ctx.voteToHalt();
      });
  TiBspConfig config;
  config.pattern = Pattern::kSequentiallyDependent;
  TiBspEngine engine(fx.pg, *fx.provider);
  engine.run(factory, config);
  EXPECT_EQ(merges.load(), 0);

  config.pattern = Pattern::kEventuallyDependent;
  engine.run(factory, config);
  EXPECT_EQ(merges.load(), static_cast<int>(fx.pg.numSubgraphs()));
}

// Wraps a provider and reports a fixed load time for every instance fetch,
// so load accounting can be checked exactly.
class FixedLoadProvider final : public InstanceProvider {
 public:
  static constexpr std::int64_t kLoadNs = 3'600'000'000'000;  // one hour

  FixedLoadProvider(InstanceProvider& inner, std::uint32_t k)
      : inner_(inner), pending_(k, 0) {}

  [[nodiscard]] std::size_t numInstances() const override {
    return inner_.numInstances();
  }
  [[nodiscard]] std::int64_t t0() const override { return inner_.t0(); }
  [[nodiscard]] std::int64_t delta() const override { return inner_.delta(); }
  const PartitionInstanceData& instanceFor(PartitionId p,
                                           Timestep t) override {
    pending_[p] += kLoadNs;
    return inner_.instanceFor(p, t);
  }
  std::int64_t takeLoadNs(PartitionId p) override {
    (void)inner_.takeLoadNs(p);
    return std::exchange(pending_[p], 0);
  }

 private:
  InstanceProvider& inner_;
  std::vector<std::int64_t> pending_;
};

// Each partition loads its instance inside superstep 0's wave task, so every
// load the provider reports is charged to that superstep's load_ns, once per
// (partition, timestep), and to no other record.
TEST(Engine, ChargesProviderLoadToSuperstepZero) {
  EngineFixture fx(2, 4);
  FixedLoadProvider provider(*fx.provider, fx.pg.numPartitions());
  TiBspConfig config;
  config.pattern = Pattern::kIndependent;
  TiBspEngine engine(fx.pg, provider);
  const auto result = engine.run(
      factoryOf([](SubgraphContext& ctx) { ctx.voteToHalt(); }), config);
  ASSERT_EQ(result.timesteps_executed, 4);

  std::int64_t load_ns = 0;
  for (const auto& rec : result.stats.supersteps()) {
    for (const auto& part : rec.parts) {
      load_ns += part.load_ns;
      EXPECT_EQ(part.load_ns,
                rec.superstep == 0 ? FixedLoadProvider::kLoadNs : 0)
          << "t=" << rec.timestep << " s=" << rec.superstep;
    }
  }
  EXPECT_EQ(load_ns, FixedLoadProvider::kLoadNs * fx.pg.numPartitions() *
                         result.timesteps_executed);
}

// compute_ns is CPU time: a subgraph that sleeps is descheduled, not
// computing.
TEST(Engine, ComputeNsIsCpuTime) {
  static constexpr std::int64_t kSleepNs = 20'000'000;
  constexpr std::uint32_t kTimesteps = 3;
  EngineFixture fx(2, kTimesteps);
  const auto factory = factoryOf([](SubgraphContext& ctx) {
    if (ctx.superstep() == 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(kSleepNs));
    }
    ctx.voteToHalt();
  });
  const std::int64_t total_sleep_ns = kSleepNs *
                                      static_cast<std::int64_t>(
                                          fx.pg.numSubgraphs()) *
                                      kTimesteps;
  TiBspConfig config;
  config.pattern = Pattern::kIndependent;
  TiBspEngine engine(fx.pg, *fx.provider);
  const auto result = engine.run(factory, config);
  ASSERT_EQ(result.timesteps_executed, static_cast<Timestep>(kTimesteps));
  std::int64_t compute_ns = 0;
  for (const auto& rec : result.stats.supersteps()) {
    for (const auto& part : rec.parts) {
      compute_ns += part.compute_ns;
    }
  }
  EXPECT_LT(compute_ns, total_sleep_ns / 4);
}

}  // namespace
}  // namespace tsg
