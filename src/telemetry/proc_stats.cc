#include "telemetry/proc_stats.h"

#ifdef __linux__
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#endif

namespace tsg {

#ifdef __linux__

namespace {

// Reads a whole small procfs file into `buf`; returns bytes read (0 on
// failure). procfs files report st_size 0, so read until EOF.
std::size_t readProcFile(const char* path, char* buf, std::size_t cap) {
  std::FILE* f = std::fopen(path, "re");
  if (f == nullptr) {
    return 0;
  }
  const std::size_t n = std::fread(buf, 1, cap - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  return n;
}

}  // namespace

ProcStats readProcStats() {
  ProcStats stats;
  char buf[1024];

  // /proc/self/statm: "size resident shared text lib data dt" in pages.
  if (readProcFile("/proc/self/statm", buf, sizeof(buf)) > 0) {
    long long size_pages = 0;
    long long resident_pages = 0;
    if (std::sscanf(buf, "%lld %lld", &size_pages, &resident_pages) == 2) {
      static const long page_size = sysconf(_SC_PAGESIZE);
      stats.rss_bytes = static_cast<std::int64_t>(resident_pages) *
                        static_cast<std::int64_t>(page_size);
      stats.valid = true;
    }
  }

  // /proc/self/stat: "pid (comm) state ppid ...". comm may contain spaces
  // and parentheses, so parse from the LAST ')' — fields after it are
  // whitespace-separated: field 3 is state, 14 utime, 15 stime, 20
  // num_threads (1-based over the whole line).
  if (readProcFile("/proc/self/stat", buf, sizeof(buf)) > 0) {
    const char* after = std::strrchr(buf, ')');
    if (after != nullptr) {
      ++after;  // skip ')'
      // after points at " state ppid ..."; utime is the 12th field after
      // the state, num_threads the 18th.
      char state = 0;
      unsigned long long utime = 0;
      unsigned long long stime = 0;
      long long num_threads = 0;
      const int matched = std::sscanf(
          after,
          " %c %*s %*s %*s %*s %*s %*s %*s %*s %*s %*s %llu %llu %*s %*s %*s "
          "%*s %lld",
          &state, &utime, &stime, &num_threads);
      if (matched == 4) {
        static const long ticks_per_sec = sysconf(_SC_CLK_TCK);
        const std::int64_t ns_per_tick =
            ticks_per_sec > 0 ? 1'000'000'000LL / ticks_per_sec : 0;
        stats.cpu_ns =
            static_cast<std::int64_t>(utime + stime) * ns_per_tick;
        stats.threads = num_threads;
        stats.valid = true;
      }
    }
  }

  return stats;
}

std::int64_t readPeakRssBytes() {
  char buf[4096];
  if (readProcFile("/proc/self/status", buf, sizeof(buf)) == 0) {
    return 0;
  }
  // "VmHWM:\t  123456 kB"
  const char* line = std::strstr(buf, "VmHWM:");
  long long kb = 0;
  if (line == nullptr || std::sscanf(line, "VmHWM: %lld", &kb) != 1) {
    return 0;
  }
  return static_cast<std::int64_t>(kb) * 1024;
}

#else  // !__linux__

ProcStats readProcStats() { return ProcStats{}; }

std::int64_t readPeakRssBytes() { return 0; }

#endif

}  // namespace tsg
