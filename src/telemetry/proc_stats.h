// Process-level resource stats for the telemetry sampler.
//
// Read from /proc/self on Linux (statm for resident set, stat for CPU time
// and thread count, status for the resident high-water mark). On platforms
// without procfs every field stays zero and `valid` is false — the sampler
// simply omits the process.* series.
#pragma once

#include <cstdint>

namespace tsg {

struct ProcStats {
  std::int64_t rss_bytes = 0;  // resident set size
  std::int64_t cpu_ns = 0;     // cumulative user+system CPU time
  std::int64_t threads = 0;    // live threads in the process
  bool valid = false;
};

// One read of /proc/self/statm + /proc/self/stat. Cheap (two small reads,
// no allocation beyond a stack buffer) — safe at a 10 ms cadence.
ProcStats readProcStats();

// Peak resident set size of the process so far (VmHWM in
// /proc/self/status); 0 where procfs is unavailable.
std::int64_t readPeakRssBytes();

}  // namespace tsg
