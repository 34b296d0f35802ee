// Determinism harness — runs the same job under N perturbed worker
// schedules and compares canonical output digests (see digest.h).
//
// Every run executes with schedule perturbation enabled under a distinct
// derived seed (base seed + run index), so worker release order and
// barrier arrival order differ between runs.
// A digest divergence means the job's output depends on scheduling — a
// violation of the TI-BSP determinism guarantee that no sanitizer can see,
// because order-sensitivity needs no data race.
//
// Used by `tsgcli check <algo> <dataset> --runs=N` and directly by tests.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace tsg {
namespace check {

struct DeterminismOptions {
  std::int32_t runs = 3;
  std::uint64_t seed = 1;
};

struct DeterminismReport {
  struct Run {
    std::uint64_t perturb_seed = 0;
    std::string digest;
  };
  bool deterministic = true;
  std::vector<Run> runs;
  // Empty when deterministic; otherwise names the first diverging run.
  std::string divergence;
};

// run_and_digest(i) executes run i (perturbation is already enabled with
// that run's seed) and returns its canonical digest. Perturbation state is
// restored to disabled on return.
DeterminismReport checkDeterminism(
    const DeterminismOptions& options,
    const std::function<std::string(std::int32_t run_index)>& run_and_digest);

// Renders the report as a small human-readable table.
std::string renderDeterminismReport(const DeterminismReport& report,
                                    std::string_view label);

}  // namespace check
}  // namespace tsg
