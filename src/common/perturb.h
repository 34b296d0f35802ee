// Schedule perturbation — the determinism harness's lever on worker timing.
//
// BSP semantics promise that results do not depend on how workers are
// scheduled. The harness tests that promise by re-running the same job
// under N different perturbed schedules: when perturbation is enabled the
// Cluster staggers each wave task's pickup and its arrival at the wave's
// seal with deterministic per-(seed, barrier crossing, partition) delays —
// a seeded stand-in for "randomized barrier release order". Any output
// divergence between two seeds is a schedule-dependence bug (the class TSan
// cannot see, because nothing races — the program is simply
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

// Enables perturbation with the given seed (affects Cluster waves from the
// next wave on).
void setPerturbation(std::uint64_t seed);
void clearPerturbation();
[[nodiscard]] std::uint64_t perturbSeed();

// Deterministic jitter for (barrier crossing, partition) under the current
// seed, in nanoseconds (0 .. ~200µs). `salt` decorrelates the two hook
// points of a crossing (task pickup vs arrival at the seal).
[[nodiscard]] std::uint64_t perturbDelayNs(std::uint64_t crossing,
                                           std::uint32_t partition,
                                           std::uint64_t salt = 0);

}  // namespace check
}  // namespace tsg
