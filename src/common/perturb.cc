#include "common/perturb.h"

#include "common/rng.h"

namespace tsg {
namespace check {

namespace perturb_detail {
std::atomic<bool> g_perturb_enabled{false};
std::atomic<std::uint64_t> g_perturb_seed{0};
}  // namespace perturb_detail

void setPerturbation(std::uint64_t seed) {
  perturb_detail::g_perturb_seed.store(seed, std::memory_order_relaxed);  // tsg:mo(seed store; the release on the enable flag publishes it)
  perturb_detail::g_perturb_enabled.store(true, std::memory_order_release);  // tsg:mo(release publishes the seed store above)
}

void clearPerturbation() {
  perturb_detail::g_perturb_enabled.store(false, std::memory_order_release);  // tsg:mo(disable gate; nothing to publish)
}

std::uint64_t perturbSeed() {
  return perturb_detail::g_perturb_seed.load(std::memory_order_relaxed);  // tsg:mo(seed is set at configuration time, before workers run)
}

std::uint64_t perturbDelayNs(std::uint64_t crossing, std::uint32_t partition,
                             std::uint64_t salt) {
  SplitMix64 mix(perturbSeed() ^ (crossing * 0x9E3779B97F4A7C15ULL) ^
                 (static_cast<std::uint64_t>(partition) << 32) ^ salt);
  // 0 .. ~200µs: large enough to reorder workers, small enough that a
  // perturbed run stays within a few × the unperturbed wall time.
  return mix.next() % 200'000;
}

}  // namespace check
}  // namespace tsg
