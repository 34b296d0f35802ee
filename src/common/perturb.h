// Schedule perturbation — the determinism harness's lever on worker timing.
//
// BSP semantics promise that results do not depend on how workers are
// scheduled. The harness tests that promise by re-running the same job
// under N different perturbed schedules: when perturbation is enabled the
// Cluster staggers its workers' release from the round barrier and their
// arrival back at it (and each wave task's pickup and completion) with
// deterministic per-(seed, round, partition) delays — a seeded stand-in
// for "randomized barrier release order" — and the ThreadPool dispatches
// parallelFor indices in a seeded shuffled order instead of 0..n-1. Any
// output divergence between two seeds is a schedule-dependence bug (the
// class TSan cannot see, because nothing races — the program is simply
// order-sensitive).
//
// Cost when off: one relaxed load + branch at each hook site.
#pragma once

#include <atomic>
#include <cstdint>

namespace tsg {
namespace check {

namespace perturb_detail {
extern std::atomic<bool> g_perturb_enabled;
}  // namespace perturb_detail

inline bool perturbEnabled() {
  return perturb_detail::g_perturb_enabled.load(std::memory_order_relaxed);  // tsg:mo(gate read; perturbation is configured before workers start)
}

// Enables perturbation with the given seed (affects Cluster rounds and
// waves and ThreadPool::parallelFor dispatch from the next round on).
void setPerturbation(std::uint64_t seed);
void clearPerturbation();
[[nodiscard]] std::uint64_t perturbSeed();

// Deterministic jitter for (round, partition) under the current seed, in
// nanoseconds (0 .. ~200µs). `salt` decorrelates the two hook points of a
// round (release vs barrier arrival).
[[nodiscard]] std::uint64_t perturbDelayNs(std::uint64_t round,
                                           std::uint32_t partition,
                                           std::uint64_t salt = 0);

// Deterministic permutation value used to shuffle dispatch order: a hash
// the scheduler sorts indices by.
[[nodiscard]] std::uint64_t perturbRank(std::uint64_t index);

}  // namespace check
}  // namespace tsg
