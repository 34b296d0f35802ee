#include "observe.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <thread>

#include "common/stopwatch.h"

namespace perfbench {

std::int64_t nowNs() { return tsg::steadyNowNs(); }

std::int64_t processCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void resetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

void trimHeap() { malloc_trim(0); }

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// --- ObservedProvider ------------------------------------------------------

ObservedProvider::ObservedProvider(tsg::InstanceProvider& inner, bool armed)
    : inner_(inner), armed_(armed) {}

const tsg::PartitionInstanceData& ObservedProvider::instanceFor(
    tsg::PartitionId p, tsg::Timestep t) {
  if (!armed_) {
    return inner_.instanceFor(p, t);
  }
  const std::int64_t start = nowNs();
  const auto& data = inner_.instanceFor(p, t);
  instance_ns_.fetch_add(nowNs() - start);
  return data;
}

// --- ObservedStream --------------------------------------------------------

ObservedStream::ObservedStream(tsg::TimestepStream& inner,
                               std::size_t timesteps)
    : inner_(inner), enter_ns_(timesteps, 0), return_ns_(timesteps, 0) {}

bool ObservedStream::awaitTimestep(tsg::Timestep t) {
  const std::int64_t enter = nowNs();
  const bool sealed = inner_.awaitTimestep(t);
  const std::int64_t done = nowNs();
  blocked_ns_ += done - enter;
  const auto i = static_cast<std::size_t>(t);
  if (i < enter_ns_.size() && enter_ns_[i] == 0) {
    enter_ns_[i] = enter;
    return_ns_[i] = done;
  }
  return sealed;
}

std::int64_t ObservedStream::enterNs(tsg::Timestep t) const {
  return enter_ns_.at(static_cast<std::size_t>(t));
}

std::int64_t ObservedStream::returnNs(tsg::Timestep t) const {
  return return_ns_.at(static_cast<std::size_t>(t));
}

// --- PacedSource -----------------------------------------------------------

PacedSource::PacedSource(tsg::stream::EventSource& inner,
                         const std::vector<std::int64_t>& due_offset_ns,
                         std::int64_t epoch_ns)
    : inner_(inner), due_offset_ns_(due_offset_ns), epoch_ns_(epoch_ns) {
  late_ns_.reserve(due_offset_ns.size());
}

tsg::Result<tsg::stream::Poll> PacedSource::next(
    tsg::stream::GraphEvent& out) {
  auto poll = inner_.next(out);
  if (!poll.isOk() || poll.value() != tsg::stream::Poll::kEvent) {
    return poll;
  }
  if (released_ < due_offset_ns_.size()) {
    const std::int64_t due = epoch_ns_ + due_offset_ns_[released_];
    const std::int64_t wait = due - nowNs();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    }
    late_ns_.push_back(std::max<std::int64_t>(0, nowNs() - due));
  }
  ++released_;
  return poll;
}

// --- ObservedCheckpointStore -----------------------------------------------

tsg::Status ObservedCheckpointStore::save(const tsg::Checkpoint& ckpt) {
  ++saves_;
  if (!armed_) {
    return inner_.save(ckpt);
  }
  const std::int64_t start = nowNs();
  tsg::Status status = inner_.save(ckpt);
  save_ms_.push_back(static_cast<double>(nowNs() - start) / 1e6);
  std::error_code ec;
  const auto size =
      std::filesystem::file_size(inner_.packPath(ckpt.timestep), ec);
  if (!ec) {
    bytes_ += size;
  }
  return status;
}

}  // namespace perfbench
