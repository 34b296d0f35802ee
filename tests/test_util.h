// Shared fixtures and helpers for the tsgraph test suite.
#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "algorithms/registry.h"
#include "common/rng.h"
#include "generators/instances.h"
#include "generators/topology.h"
#include "gofs/instance_provider.h"
#include "graph/collection.h"
#include "graph/graph_template.h"
#include "partition/partitioned_graph.h"
#include "partition/partitioner.h"
#include "metrics/stats.h"

namespace tsg::testing {

// Unwraps a Result<T>, failing the test with the status message otherwise.
template <typename T>
T unwrap(Result<T> result) {
  if (!result.isOk()) {
    ADD_FAILURE() << "Result error: " << result.status().toString();
    abort();
  }
  return std::move(result).value();
}

inline GraphTemplatePtr share(GraphTemplate tmpl) {
  return std::make_shared<GraphTemplate>(std::move(tmpl));
}

// Process-unique scratch directory name. ctest runs every TEST in its own
// process, so a static counter alone makes concurrent tests (ctest -j)
// collide on the same path; the pid disambiguates them.
inline std::string uniqueTempDir(const std::string& prefix) {
  static std::atomic<int> counter{0};
  return (std::filesystem::temp_directory_path() /
          (prefix + "_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++)))
      .string();
}

// RAII scratch directory. Prefer this over calling uniqueTempDir directly:
// the destructor removes the tree on every exit path (including early
// returns and fixtures without a TearDown), so failed tests don't leak
// directories into /tmp.
class TempDir {
 public:
  explicit TempDir(const std::string& prefix) : path_(uniqueTempDir(prefix)) {}
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);  // best effort; never throws
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Three vertices, two undirected edges, one attribute of each flavor a
// streaming/instance test needs (string-list, bool, double). Small enough
// to hand-compute expected columns.
inline GraphTemplatePtr tinyTemplate() {
  GraphTemplateBuilder builder(/*directed=*/false);
  builder.vertexSchema().add("tweets", AttrType::kStringList);
  builder.vertexSchema().add("active", AttrType::kBool);
  builder.edgeSchema().add("latency", AttrType::kDouble);
  builder.addVertex(1);
  builder.addVertex(2);
  builder.addUndirectedEdge(0, 1, 2);
  return share(unwrap(builder.build()));
}

// Reads every instance through both providers and compares all columns.
inline void expectProvidersAgree(const PartitionedGraph& pg,
                                 const TimeSeriesCollection& coll,
                                 InstanceProvider& lazy) {
  DirectInstanceProvider direct(pg, coll);
  ASSERT_EQ(lazy.numInstances(), coll.numInstances());
  EXPECT_EQ(lazy.t0(), coll.t0());
  EXPECT_EQ(lazy.delta(), coll.delta());
  for (PartitionId p = 0; p < pg.numPartitions(); ++p) {
    for (Timestep t = 0; t < static_cast<Timestep>(coll.numInstances());
         ++t) {
      const auto& a = direct.instanceFor(p, t);
      const auto& b = lazy.instanceFor(p, t);
      ASSERT_EQ(a.timestep, b.timestep);
      ASSERT_EQ(a.timestamp, b.timestamp);
      ASSERT_EQ(a.vertex_cols.size(), b.vertex_cols.size());
      ASSERT_EQ(a.edge_cols.size(), b.edge_cols.size());
      for (std::size_t c = 0; c < a.vertex_cols.size(); ++c) {
        EXPECT_EQ(a.vertex_cols[c], b.vertex_cols[c])
            << "p=" << p << " t=" << t << " vcol=" << c;
      }
      for (std::size_t c = 0; c < a.edge_cols.size(); ++c) {
        EXPECT_EQ(a.edge_cols[c], b.edge_cols[c])
            << "p=" << p << " t=" << t << " ecol=" << c;
      }
    }
  }
}

// A small connected road-like template with a "latency" edge attribute.
inline GraphTemplatePtr smallRoad(std::uint32_t width = 8,
                                  std::uint32_t height = 8,
                                  std::uint64_t seed = 3) {
  RoadNetworkOptions options;
  options.width = width;
  options.height = height;
  options.seed = seed;
  return share(
      unwrap(makeRoadNetwork(options, AttributeSchema{}, roadEdgeSchema())));
}

// A small power-law template with a "tweets" vertex attribute.
inline GraphTemplatePtr smallSocial(std::uint32_t n = 64,
                                    std::uint64_t seed = 3) {
  PreferentialAttachmentOptions options;
  options.num_vertices = n;
  options.edges_per_vertex = 2;
  options.seed = seed;
  return share(unwrap(makePreferentialAttachment(
      options, tweetVertexSchema(), AttributeSchema{})));
}

inline PartitionedGraph partitionGraph(GraphTemplatePtr tmpl,
                                       std::uint32_t k,
                                       std::uint64_t seed = 11) {
  const BfsPartitioner partitioner(seed);
  const auto assignment = partitioner.assign(*tmpl, k);
  return unwrap(PartitionedGraph::build(std::move(tmpl), assignment, k));
}

// Road collection with uniform random latencies.
inline TimeSeriesCollection roadCollection(GraphTemplatePtr tmpl,
                                           std::uint32_t timesteps,
                                           std::uint64_t seed = 5,
                                           std::int64_t delta = 5) {
  RoadInstanceOptions options;
  options.num_timesteps = timesteps;
  options.seed = seed;
  options.delta = delta;
  options.min_latency = 1.0;
  options.max_latency = 10.0;
  return unwrap(makeRoadInstances(std::move(tmpl), options));
}

// Tweet collection with SIR meme propagation.
inline TimeSeriesCollection tweetCollection(GraphTemplatePtr tmpl,
                                            std::uint32_t timesteps,
                                            double hit_probability = 0.3,
                                            std::uint64_t seed = 5) {
  SirTweetOptions options;
  options.num_timesteps = timesteps;
  options.hit_probability = hit_probability;
  options.seed = seed;
  options.num_seed_vertices = 2;
  return unwrap(makeSirTweetInstances(std::move(tmpl), options));
}

// Sums a counter across partitions in a run's metrics delta.
inline std::int64_t metricTotal(const RunStats& stats,
                                const std::string& name) {
  std::int64_t total = 0;
  for (const auto& point : stats.metrics()) {
    if (point.name == name) {
      total += point.value;
    }
  }
  return total;
}

// Every wait the scheduler meters: barrier wait of barriered waves, ready
// wait and seal wait of stealing waves. A run's summed sync_ns and its
// summed wait_caused_ns both equal it.
inline std::int64_t meteredWaitNs(const RunStats& stats) {
  return metricTotal(stats, "cluster.barrier_wait_ns") +
         metricTotal(stats, "engine.ready_wait_ns") +
         metricTotal(stats, "cluster.seal_wait_ns");
}

// --- Per-algorithm matrices ----------------------------------------------

// The registry entry named `name`.
inline const AlgorithmEntry& algorithm(std::string_view name) {
  const AlgorithmEntry* entry = findAlgorithm(name);
  if (entry == nullptr) {
    ADD_FAILURE() << "no registry entry " << name;
    abort();
  }
  return *entry;
}

// A small fixed dataset plus the run helper the matrices share.
struct AlgoEnv {
  GraphTemplatePtr tmpl;
  PartitionedGraph pg;
  TimeSeriesCollection coll;

  // One batch run of `entry` over the collection.
  [[nodiscard]] AlgorithmRun run(const AlgorithmEntry& entry,
                                 const AlgorithmRequest& request = {}) const {
    DirectInstanceProvider provider(pg, coll);
    return unwrap(runAlgorithm(entry, pg, provider, request));
  }
};

// Five timesteps over three partitions: the tweet graph for algorithms
// that read tweets, the road network otherwise.
inline AlgoEnv envFor(const AlgorithmEntry& entry) {
  const bool tweets = entry.needs == NeededAttr::kTweetsVertex;
  GraphTemplatePtr tmpl = tweets ? smallSocial(64) : smallRoad(8, 8);
  PartitionedGraph pg = partitionGraph(tmpl, 3);
  TimeSeriesCollection coll =
      tweets ? tweetCollection(tmpl, 5) : roadCollection(tmpl, 5);
  return AlgoEnv{std::move(tmpl), std::move(pg), std::move(coll)};
}

// "tdsp-vertex" -> "TdspVertex".
inline std::string camelName(std::string_view name) {
  std::string out;
  bool upper = true;
  for (const char c : name) {
    if (c == '-') {
      upper = true;
      continue;
    }
    out += upper ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                 : c;
    upper = false;
  }
  return out;
}

// Registers one test `<suite>.<CamelName><suffix>` per registry entry that
// runs `body(entry)`, so every per-algorithm matrix covers a new entry
// without an edit. Call at namespace scope:
//   const bool kRegistered = registerPerAlgorithm("Suite", "", &body);
using AlgorithmTestBody = void (*)(const AlgorithmEntry&);

class PerAlgorithmTest : public ::testing::Test {
 public:
  PerAlgorithmTest(AlgorithmTestBody body, const AlgorithmEntry& entry)
      : body_(body), entry_(entry) {}
  void TestBody() override { body_(entry_); }

 private:
  AlgorithmTestBody body_;
  const AlgorithmEntry& entry_;
};

inline bool registerPerAlgorithm(const char* suite, const std::string& suffix,
                                 AlgorithmTestBody body) {
  for (const AlgorithmEntry& entry : algorithms()) {
    ::testing::RegisterTest(
        suite, (camelName(entry.name) + suffix).c_str(), nullptr, nullptr,
        __FILE__, __LINE__, [body, &entry]() -> ::testing::Test* {
          return new PerAlgorithmTest(body, entry);
        });
  }
  return true;
}

// --- Hand-computed straggler fixture ------------------------------------
// test_stats checks RunStats::modelledParallelNs against it; test_analysis
// books the measured wait blame of the same three records on top. Under
// fixtureNetworkModel() (1 byte = 8 ns, 100 ns/message, 1000 ns/barrier):
//
//   (t0,s0): busy {120, 350}  straggler 1, comm 1200 -> 2550
//   (t0,s1): busy { 50, 400}  straggler 1            -> 1400
//   (t1,s0): busy {500, 100}  straggler 0            -> 1500
//
// modelledParallelNs = 5450 = critical-path busy 1250 + comm 1200 +
// barriers 3000; total busy 1520.

inline NetworkModel fixtureNetworkModel() {
  NetworkModel net;
  net.bandwidth_bytes_per_sec = 125e6;  // 1 byte = 8 ns
  net.per_message_ns = 100;
  net.per_superstep_barrier_ns = 1000;
  return net;
}

inline RunStats stragglerFixtureStats() {
  RunStats stats(2);
  SuperstepRecord a;
  a.timestep = 0;
  a.superstep = 0;
  a.parts.resize(2);
  a.parts[0].compute_ns = 100;
  a.parts[0].send_ns = 20;
  a.parts[1].compute_ns = 300;
  a.parts[1].send_ns = 30;
  a.parts[1].load_ns = 20;
  a.cross_partition_bytes = 125;   // 1000 ns at 125 MB/s
  a.cross_partition_messages = 2;  // 200 ns
  a.delivered_messages = 4;
  a.delivered_bytes = 64;
  stats.addSuperstep(std::move(a));

  SuperstepRecord b;
  b.timestep = 0;
  b.superstep = 1;
  b.parts.resize(2);
  b.parts[0].compute_ns = 50;
  b.parts[1].compute_ns = 400;
  stats.addSuperstep(std::move(b));

  SuperstepRecord c;
  c.timestep = 1;
  c.superstep = 0;
  c.parts.resize(2);
  c.parts[0].compute_ns = 500;
  c.parts[1].compute_ns = 100;
  stats.addSuperstep(std::move(c));
  return stats;
}

// --- Minimal JSON validity checker (grammar only, no DOM) ---------------
// Used to assert that exported traces and stats are well-formed without
// pulling a JSON library into the build.

namespace json_detail {

inline void skipWs(std::string_view s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                          s[i] == '\r')) {
    ++i;
  }
}

inline bool parseValue(std::string_view s, std::size_t& i, int depth);

inline bool parseString(std::string_view s, std::size_t& i) {
  if (i >= s.size() || s[i] != '"') {
    return false;
  }
  ++i;
  while (i < s.size()) {
    const char c = s[i];
    if (c == '"') {
      ++i;
      return true;
    }
    if (c == '\\') {
      ++i;
      if (i >= s.size()) {
        return false;
      }
      const char esc = s[i];
      if (esc == 'u') {
        for (int h = 0; h < 4; ++h) {
          ++i;
          if (i >= s.size() || std::isxdigit(static_cast<unsigned char>(
                                   s[i])) == 0) {
            return false;
          }
        }
      } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                 std::string_view::npos) {
        return false;
      }
    }
    ++i;
  }
  return false;  // unterminated
}

inline bool parseNumber(std::string_view s, std::size_t& i) {
  const std::size_t start = i;
  if (i < s.size() && s[i] == '-') {
    ++i;
  }
  while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) !=
                              0 ||
                          s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                          s[i] == '+' || s[i] == '-')) {
    ++i;
  }
  return i > start;
}

inline bool parseValue(std::string_view s, std::size_t& i, int depth) {
  if (depth > 128) {
    return false;
  }
  skipWs(s, i);
  if (i >= s.size()) {
    return false;
  }
  const char c = s[i];
  if (c == '{') {
    ++i;
    skipWs(s, i);
    if (i < s.size() && s[i] == '}') {
      ++i;
      return true;
    }
    while (true) {
      skipWs(s, i);
      if (!parseString(s, i)) {
        return false;
      }
      skipWs(s, i);
      if (i >= s.size() || s[i] != ':') {
        return false;
      }
      ++i;
      if (!parseValue(s, i, depth + 1)) {
        return false;
      }
      skipWs(s, i);
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      if (i < s.size() && s[i] == '}') {
        ++i;
        return true;
      }
      return false;
    }
  }
  if (c == '[') {
    ++i;
    skipWs(s, i);
    if (i < s.size() && s[i] == ']') {
      ++i;
      return true;
    }
    while (true) {
      if (!parseValue(s, i, depth + 1)) {
        return false;
      }
      skipWs(s, i);
      if (i < s.size() && s[i] == ',') {
        ++i;
        continue;
      }
      if (i < s.size() && s[i] == ']') {
        ++i;
        return true;
      }
      return false;
    }
  }
  if (c == '"') {
    return parseString(s, i);
  }
  for (const std::string_view word : {"true", "false", "null"}) {
    if (s.substr(i, word.size()) == word) {
      i += word.size();
      return true;
    }
  }
  return parseNumber(s, i);
}

}  // namespace json_detail

// True iff `text` is one complete, well-formed JSON value.
inline bool isValidJson(std::string_view text) {
  std::size_t i = 0;
  if (!json_detail::parseValue(text, i, 0)) {
    return false;
  }
  json_detail::skipWs(text, i);
  return i == text.size();
}

}  // namespace tsg::testing
