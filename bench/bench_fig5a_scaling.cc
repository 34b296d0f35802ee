// Fig. 5a reproduction: total time for the three TI-BSP algorithms (HASH,
// MEME, TDSP) on both graphs for 3 / 6 / 9 partitions, over the full
// 50-instance series stored in GoFS.
//
// Paper shape (§IV-B): TDSP and MEME show strong scaling 3→6 (1.67–1.88×,
// close to the ideal 2×) and weaker gains 6→9; HASH scales worst because
// its per-timestep compute is tiny and communication/synchronization
// dominates; TDSP on WIKI is unexpectedly fast because While-mode converges
// in a handful of timesteps (vs ~47 on CARN).
//
// This host runs every "VM" on one core, so wall-clock cannot show
// parallel speedup; the scaling columns therefore report the MODELLED
// parallel time (critical path + 1GbE network model; DESIGN.md §1), with
// wall-clock shown for reference.
#include <map>
#include <sstream>
#include <utility>

#include "algorithms/registry.h"
#include "bench_common.h"
#include "common/stopwatch.h"
#include "common/table.h"

namespace {

using namespace tsg;
using namespace tsg::bench;

struct RunResult {
  double wall_sec = 0;
  double modelled_sec = 0;
  Timestep timesteps = 0;
};

// One run of a registry algorithm with the paper's parameters: the #meme
// tag for HASH and MEME, source vertex 0 in While mode for TDSP.
RunResult runAlgoOnce(const AlgorithmEntry& algo, const GofsDataset& ds) {
  AlgorithmRequest request;
  request.params.set("tag", "#meme");
  request.params.set("source", "0");
  auto provider = ds.makeProvider();
  const auto run =
      runAlgorithm(algo, ds.partitionedGraph(), *provider, request);
  TSG_CHECK_MSG(run.isOk(), run.status().toString());
  const RunStats& stats = run.value().stats;
  return RunResult{nsToSec(stats.wallClockNs()),
                   nsToSec(stats.modelledParallelNs()), stats.numTimesteps()};
}

// Best of three repetitions: the modelled time is a per-superstep maximum,
// so one transient page-fault or scheduling spike inflates a whole run;
// the minimum is the reproducible figure.
RunResult runAlgo(const AlgorithmEntry& algo, const GofsDataset& ds) {
  RunResult best = runAlgoOnce(algo, ds);
  for (int rep = 1; rep < 3; ++rep) {
    const RunResult r = runAlgoOnce(algo, ds);
    if (r.modelled_sec < best.modelled_sec) {
      best = r;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchConfig config = parseArgs(argc, argv);

  TextTable table({"algo", "graph", "k=3 (s)", "k=6 (s)", "k=9 (s)",
                   "speedup 3→6", "speedup 3→9", "timesteps", "wall k=6 (s)"});
  std::ostringstream notes;

  // The paper's labels for the registry's entries.
  const std::pair<const char*, const char*> algos[] = {
      {"HASH", "hashtag"}, {"MEME", "meme"}, {"TDSP", "tdsp"}};
  for (const auto& [label, name] : algos) {
    const AlgorithmEntry* algo = findAlgorithm(name);
    TSG_CHECK(algo != nullptr);
    for (const auto kind : {GraphKind::kCarn, GraphKind::kWiki}) {
      const auto workload = algo->needs == NeededAttr::kLatencyEdge
                                ? WorkloadKind::kRoad
                                : WorkloadKind::kTweet;
      std::map<std::uint32_t, RunResult> results;
      for (const std::uint32_t k : {3u, 6u, 9u}) {
        const auto ds = openDataset(kind, workload, k, config);
        results[k] = runAlgo(*algo, ds);
      }
      table.addRow(
          {label, kindName(kind),
           TextTable::fmtDouble(results[3].modelled_sec, 3),
           TextTable::fmtDouble(results[6].modelled_sec, 3),
           TextTable::fmtDouble(results[9].modelled_sec, 3),
           TextTable::fmtDouble(
               results[3].modelled_sec / results[6].modelled_sec, 2) + "x",
           TextTable::fmtDouble(
               results[3].modelled_sec / results[9].modelled_sec, 2) + "x",
           std::to_string(results[6].timesteps),
           TextTable::fmtDouble(results[6].wall_sec, 3)});
    }
  }

  std::ostringstream out;
  out << "=== Fig. 5a: total time, 3 algorithms x 2 graphs x 3/6/9 "
         "partitions (scale="
      << config.scale_percent << "%, timesteps=" << config.timesteps
      << ") ===\n"
      << table.render()
      << "paper shape: TDSP/MEME speedup 3->6 of 1.67-1.88x, weaker 6->9; "
         "HASH scales worst;\n"
      << "TDSP on WIKI converges in ~4 timesteps vs ~47 on CARN "
         "(While-mode).\n"
      << "columns k=3/6/9 are modelled parallel seconds (single-core host; "
         "see DESIGN.md)\n\n";
  emit(config, "fig5a_scaling", out.str());
  return 0;
}
