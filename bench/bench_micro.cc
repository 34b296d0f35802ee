// Micro-benchmarks (google-benchmark) for the substrate hot paths:
// serialization, attribute gather/scatter, message bus delivery, RNG,
// partitioning and subgraph decomposition throughput, GoFS pack loads, the
// subgraph Dijkstra kernel under TDSP, and the cluster's per-barrier cost.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "algorithms/tdsp.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "generators/instances.h"
#include "generators/topology.h"
#include "gofs/dataset.h"
#include "gofs/instance_provider.h"
#include "partition/partitioned_graph.h"
#include "partition/partitioner.h"
#include "runtime/cluster.h"
#include "runtime/message_bus.h"

namespace {

using namespace tsg;

GraphTemplatePtr benchRoad(std::uint32_t side) {
  RoadNetworkOptions options;
  options.width = side;
  options.height = side;
  options.seed = 1;
  auto result =
      makeRoadNetwork(options, AttributeSchema{}, roadEdgeSchema());
  TSG_CHECK(result.isOk());
  return std::make_shared<GraphTemplate>(std::move(result).value());
}

void BM_VarintRoundtrip(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::uint64_t> values(1024);
  for (auto& v : values) {
    v = rng.next() >> (rng.next() % 56);
  }
  for (auto _ : state) {
    BinaryWriter w(10 * values.size());
    for (const auto v : values) {
      w.writeVarint(v);
    }
    BinaryReader r(w.buffer());
    std::uint64_t out = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      benchmark::DoNotOptimize(r.readVarint(out));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_VarintRoundtrip);

void BM_DoubleColumnSerialize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto col = AttributeColumn::make(AttrType::kDouble, n);
  Rng rng(2);
  for (auto& v : col.asDouble()) {
    v = rng.uniformDouble();
  }
  for (auto _ : state) {
    BinaryWriter w(n * 8 + 16);
    col.serialize(w);
    BinaryReader r(w.buffer());
    auto parsed = AttributeColumn::deserialize(r);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * 8));
}
BENCHMARK(BM_DoubleColumnSerialize)->Arg(1024)->Arg(65536);

void BM_GatherScatter(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto col = AttributeColumn::make(AttrType::kDouble, n);
  std::vector<std::uint32_t> indices;
  indices.reserve(n / 2);
  for (std::uint32_t i = 0; i < n; i += 2) {
    indices.push_back(i);
  }
  for (auto _ : state) {
    auto gathered = col.gather(indices);
    col.scatterFrom(gathered, indices);
    benchmark::DoNotOptimize(col);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(indices.size()));
}
BENCHMARK(BM_GatherScatter)->Arg(65536);

// Measures the coordinator's between-superstep deliver() — the serial
// barrier cost. Inbox draining and sending happen in the paused region, as
// in the engine, where partition workers do both on their own threads.
void runMessageBusDelivery(benchmark::State& state, std::uint32_t k,
                           std::size_t payload_size) {
  MessageBus bus(k);
  for (auto _ : state) {
    state.PauseTiming();
    for (PartitionId p = 0; p < k; ++p) {
      bus.inbox(p).clear();
    }
    for (PartitionId from = 0; from < k; ++from) {
      for (int i = 0; i < 100; ++i) {
        Message msg;
        msg.src = from;
        msg.dst = (from + i) % k;
        msg.payload.assign(payload_size, 7);
        bus.send(from, msg.dst % k, std::move(msg));
      }
    }
    state.ResumeTiming();
    const auto stats = bus.deliver();
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * 100 * k);
}

void BM_MessageBusDelivery(benchmark::State& state) {
  runMessageBusDelivery(state, static_cast<std::uint32_t>(state.range(0)), 64);
}
BENCHMARK(BM_MessageBusDelivery)->Arg(3)->Arg(9);

// Sweep: partition count × payload size (0 = empty, 16 = inline SBO,
// 64/1024 = refcounted heap block).
void BM_MessageBusDeliverySweep(benchmark::State& state) {
  runMessageBusDelivery(state, static_cast<std::uint32_t>(state.range(0)),
                        static_cast<std::size_t>(state.range(1)));
}
BENCHMARK(BM_MessageBusDeliverySweep)
    ->ArgNames({"parts", "payload"})
    ->Args({3, 0})
    ->Args({3, 16})
    ->Args({3, 64})
    ->Args({3, 1024})
    ->Args({9, 0})
    ->Args({9, 16})
    ->Args({9, 64})
    ->Args({9, 1024})
    ->Args({27, 64});

void BM_Xoshiro(benchmark::State& state) {
  Rng rng(3);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    acc ^= rng.next();
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Xoshiro);

void BM_BfsPartition(benchmark::State& state) {
  const auto tmpl = benchRoad(60);
  const BfsPartitioner partitioner(7);
  for (auto _ : state) {
    auto assignment =
        partitioner.assign(*tmpl, static_cast<std::uint32_t>(state.range(0)));
    benchmark::DoNotOptimize(assignment);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tmpl->numVertices()));
}
BENCHMARK(BM_BfsPartition)->Arg(3)->Arg(9);

void BM_SubgraphDecomposition(benchmark::State& state) {
  auto tmpl = benchRoad(60);
  const BfsPartitioner partitioner(7);
  const auto assignment = partitioner.assign(*tmpl, 6);
  for (auto _ : state) {
    auto pg = PartitionedGraph::build(tmpl, assignment, 6);
    benchmark::DoNotOptimize(pg);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tmpl->numVertices()));
}
BENCHMARK(BM_SubgraphDecomposition);

void BM_SirGeneration(benchmark::State& state) {
  PreferentialAttachmentOptions topo;
  topo.num_vertices = 5000;
  topo.seed = 4;
  auto result =
      makePreferentialAttachment(topo, tweetVertexSchema(), AttributeSchema{});
  TSG_CHECK(result.isOk());
  auto tmpl = std::make_shared<GraphTemplate>(std::move(result).value());
  SirTweetOptions options;
  options.num_timesteps = 10;
  options.hit_probability = 0.1;
  for (auto _ : state) {
    auto coll = makeSirTweetInstances(tmpl, options);
    benchmark::DoNotOptimize(coll);
  }
  state.SetItemsProcessed(state.iterations() * 10 * 5000);
}
BENCHMARK(BM_SirGeneration);

void BM_PartitionGather(benchmark::State& state) {
  auto tmpl = benchRoad(40);
  const BfsPartitioner partitioner(7);
  auto pg_result =
      PartitionedGraph::build(tmpl, partitioner.assign(*tmpl, 4), 4);
  TSG_CHECK(pg_result.isOk());
  const auto pg = std::move(pg_result).value();
  RoadInstanceOptions rio;
  rio.num_timesteps = 1;
  auto coll = makeRoadInstances(tmpl, rio);
  TSG_CHECK(coll.isOk());
  for (auto _ : state) {
    for (PartitionId p = 0; p < 4; ++p) {
      auto data = gatherPartitionInstance(pg, p, coll.value().instance(0));
      benchmark::DoNotOptimize(data);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tmpl->numEdges()));
}
BENCHMARK(BM_PartitionGather);

// Loads one 10-step GoFS pack of a 65,536-cell vertex column (a 256x256
// lattice, one partition, one subgraph) through the lazy provider, cold
// each iteration: alternating between two packs makes every call a load.
// A string-list cell is, as in the tweet workload, empty 99% of the time.
void BM_GofsLoadPack(benchmark::State& state, AttrType type) {
  constexpr std::uint32_t kSide = 256;
  constexpr std::size_t kCells = std::size_t{kSide} * kSide;
  constexpr Timestep kSteps = 10;
  RoadNetworkOptions options;
  options.width = kSide;
  options.height = kSide;
  options.keep_probability = 1.0;
  options.diagonal_probability = 0.0;
  AttributeSchema vertex_schema;
  vertex_schema.add("value", type);
  auto built = makeRoadNetwork(options, vertex_schema, AttributeSchema{});
  TSG_CHECK(built.isOk());
  auto tmpl = std::make_shared<GraphTemplate>(std::move(built).value());
  auto pg_result = PartitionedGraph::build(
      tmpl, PartitionAssignment(tmpl->numVertices(), 0), 1);
  TSG_CHECK(pg_result.isOk());
  const auto pg = std::move(pg_result).value();

  TimeSeriesCollection coll(tmpl, 0, 1);
  Rng rng(3);
  for (Timestep t = 0; t < 2 * kSteps; ++t) {
    AttributeColumn& col = coll.appendInstance().vertexCol(0);
    if (type == AttrType::kDouble) {
      for (auto& v : col.asDouble()) {
        v = rng.uniformDouble();
      }
    } else {
      for (auto& list : col.asStringList()) {
        if (rng.uniformBelow(100) == 0) {
          list = {"#meme", "#tag" + std::to_string(rng.uniformBelow(50))};
        }
      }
    }
  }
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("tsg_bench_load_pack_" + std::to_string(::getpid())))
          .string();
  const Status written = writeGofsDataset(dir, "pack", pg, coll, {});
  TSG_CHECK_MSG(written.isOk(), written.toString());
  {
    auto ds = GofsDataset::open(dir);
    TSG_CHECK(ds.isOk());
    auto provider = ds.value().makeProvider();
    Timestep t = 0;
    for (auto _ : state) {
      const auto& data = provider->instanceFor(0, t);
      benchmark::DoNotOptimize(&data);
      t = kSteps - t;
    }
  }
  std::filesystem::remove_all(dir);
  state.counters["sec_per_cell"] = benchmark::Counter(
      static_cast<double>(kCells * kSteps),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

BENCHMARK_CAPTURE(BM_GofsLoadPack, double, AttrType::kDouble)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_GofsLoadPack, string_list, AttrType::kStringList)
    ->Unit(benchmark::kMillisecond);

// TDSP on one CARN-like subgraph (a 10k-vertex lattice, one partition) over
// a few timesteps, with the road workload's latency scale relative to δ:
// each timestep re-roots the growing finalized frontier and runs the
// horizon-bounded kernel, so the kernel dominates the engine's per-timestep
// overhead.
void BM_TdspSubgraphCompute(benchmark::State& state) {
  auto tmpl = benchRoad(100);
  auto pg_result = PartitionedGraph::build(
      tmpl, PartitionAssignment(tmpl->numVertices(), 0), 1);
  TSG_CHECK(pg_result.isOk());
  const auto pg = std::move(pg_result).value();
  TSG_CHECK(pg.numSubgraphs() == 1);
  const auto timesteps = static_cast<std::uint32_t>(state.range(0));
  RoadInstanceOptions rio;
  rio.num_timesteps = timesteps;
  rio.delta = 5;
  rio.min_latency = 0.04;
  rio.max_latency = 0.9;
  auto coll = makeRoadInstances(tmpl, rio);
  TSG_CHECK(coll.isOk());
  DirectInstanceProvider provider(pg, coll.value());
  TdspOptions options;
  options.source = tmpl->numVertices() / 2;
  options.latency_attr = 0;
  options.while_mode = false;
  for (auto _ : state) {
    auto run = runTdsp(pg, provider, options);
    benchmark::DoNotOptimize(run.tdsp.data());
  }
  state.SetItemsProcessed(state.iterations() * timesteps);
}
BENCHMARK(BM_TdspSubgraphCompute)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

// The fixed cost of a BSP barrier: per iteration one barriered phase of
// `waves` waves of empty tasks — push, owner wake-up and seal per wave, plus
// the coordinator's phase start and return. waves=1 is an end-of-timestep
// or maintenance phase; many waves are the supersteps of one timestep.
class EmptyWaves final : public Cluster::Driver {
 public:
  EmptyWaves(std::uint32_t k, std::int32_t waves) : all_(k), waves_(waves) {
    std::iota(all_.begin(), all_.end(), PartitionId{0});
  }
  void runTask(PartitionId, const Cluster::TaskInfo&) override {}
  std::vector<PartitionId> sealWave(const Cluster::Seal& seal) override {
    return seal.wave + 1 < waves_ ? all_ : std::vector<PartitionId>{};
  }
  void runPhase(Cluster& cluster) {
    cluster.runWaves(*this, all_, Cluster::Sync::kBarrier);
  }

 private:
  std::vector<PartitionId> all_;
  std::int32_t waves_;
};

void BM_BarrieredPhase(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto waves = static_cast<std::int32_t>(state.range(1));
  Cluster cluster(k);
  EmptyWaves driver(k, waves);
  for (auto _ : state) {
    driver.runPhase(cluster);
  }
  state.SetItemsProcessed(state.iterations() * waves);
}
BENCHMARK(BM_BarrieredPhase)
    ->ArgNames({"k", "waves"})
    ->ArgsProduct({{3, 9}, {1, 64}})
    ->UseRealTime();

BENCHMARK_MAIN();
