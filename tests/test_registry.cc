// The algorithm registry: it holds exactly the algorithms the golden
// digests pin, rejects the wrong kind of dataset with a failedPrecondition
// that names the generator flag, and parses per-algorithm parameters
// strictly — a bad value is a Status, never an abort.
#include "algorithms/registry.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "test_util.h"

namespace tsg {
namespace {

using testing::algorithm;
using testing::envFor;

TEST(Registry, HoldsExactlyTheGoldenDigestAlgorithms) {
  std::ifstream golden(TSG_GOLDEN_DIGESTS);
  ASSERT_TRUE(golden.good()) << TSG_GOLDEN_DIGESTS;
  std::set<std::string> golden_names;
  std::string line;
  while (std::getline(golden, line)) {
    std::string name;
    std::istringstream(line) >> name;
    if (!name.empty()) {
      golden_names.insert(name);
    }
  }
  std::set<std::string> names;
  for (const AlgorithmEntry& entry : algorithms()) {
    EXPECT_TRUE(names.insert(std::string(entry.name)).second)
        << "duplicate entry " << entry.name;
    EXPECT_EQ(findAlgorithm(entry.name), &entry);
  }
  EXPECT_EQ(names, golden_names);
  EXPECT_EQ(names.size(), 9u);
  EXPECT_EQ(findAlgorithm("no-such-algorithm"), nullptr);
}

TEST(Registry, WrongDatasetKindFailsPreconditionNamingAttributeAndWorkload) {
  for (const AlgorithmEntry& entry : algorithms()) {
    if (entry.needs == NeededAttr::kNone) {
      continue;
    }
    SCOPED_TRACE(std::string(entry.name));
    // The road network has no tweets; the tweet graph has no latencies.
    const bool tweets = entry.needs == NeededAttr::kTweetsVertex;
    auto tmpl = tweets ? testing::smallRoad(4, 4) : testing::smallSocial(16);
    const auto pg = testing::partitionGraph(tmpl, 2);
    const auto coll = tweets ? testing::roadCollection(tmpl, 2)
                             : testing::tweetCollection(tmpl, 2);
    DirectInstanceProvider provider(pg, coll);
    const auto run = runAlgorithm(entry, pg, provider, {});
    ASSERT_FALSE(run.isOk());
    EXPECT_EQ(run.status().code(), ErrorCode::kFailedPrecondition);
    const std::string& message = run.status().message();
    EXPECT_NE(message.find(tweets ? "'tweets' vertex attribute"
                                  : "'latency' edge attribute"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find(tweets ? "--workload=tweet" : "--workload=road"),
              std::string::npos)
        << message;
  }
}

// Runs `name` on its usual dataset with one parameter set; the run must
// come back as invalidArgument naming the flag.
void expectRejectedParam(const char* name, const char* key,
                         const char* value) {
  const AlgorithmEntry& entry = algorithm(name);
  const testing::AlgoEnv env = envFor(entry);
  AlgorithmRequest request;
  request.params.set(key, value);
  DirectInstanceProvider provider(env.pg, env.coll);
  const auto run = runAlgorithm(entry, env.pg, provider, request);
  ASSERT_FALSE(run.isOk());
  EXPECT_EQ(run.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(run.status().message().find("--" + std::string(key) + "=" +
                                        value),
            std::string::npos)
      << run.status().message();
}

TEST(Registry, TdspSourceOutOfRangeIsInvalidArgument) {
  expectRejectedParam("tdsp", "source", "99999");
}

TEST(Registry, TdspSourceNotAnIntegerIsInvalidArgument) {
  expectRejectedParam("tdsp", "source", "abc");
}

TEST(Registry, PageRankNegativeItersIsInvalidArgument) {
  expectRejectedParam("pagerank", "iters", "-3");
}

TEST(Registry, FlagMapParsesWholeValuesStrictly) {
  FlagMap flags;
  flags.set("runs", "3");
  flags.set("trailing", "3x");
  flags.set("empty", "");
  flags.set("ratio", "0.25");
  flags.set("dots", "0.2.5");
  flags.set("nan", "nan");
  EXPECT_EQ(flags.getInt("runs", 1).value(), 3);
  EXPECT_EQ(flags.getInt("absent", 7).value(), 7);
  EXPECT_FALSE(flags.getInt("trailing", 1).isOk());
  EXPECT_FALSE(flags.getInt("empty", 1).isOk());
  EXPECT_FALSE(flags.getInt("runs", 1, /*min=*/4).isOk());
  EXPECT_DOUBLE_EQ(flags.getDouble("ratio", 0.0).value(), 0.25);
  EXPECT_FALSE(flags.getDouble("dots", 0.0).isOk());
  EXPECT_FALSE(flags.getDouble("nan", 0.0).isOk());
}

}  // namespace
}  // namespace tsg
