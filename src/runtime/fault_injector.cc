#include "runtime/fault_injector.h"

#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/log.h"
#include "common/metrics.h"

namespace tsg {
namespace fault {

std::string_view siteName(Site site) {
  switch (site) {
    case Site::kCompute:
      return "compute";
    case Site::kBarrier:
      return "barrier";
    case Site::kDeliver:
      return "deliver";
    case Site::kSliceLoad:
      return "slice-load";
  }
  return "?";
}

std::string_view actionName(Action action) {
  switch (action) {
    case Action::kKill:
      return "kill";
    case Action::kDrop:
      return "drop";
    case Action::kDelay:
      return "delay";
    case Action::kFailLoad:
      return "fail";
  }
  return "?";
}

namespace {

std::string describe(PartitionId partition, Timestep timestep, Site site) {
  std::ostringstream os;
  os << "injected " << siteName(site) << " fault at partition " << partition
     << ", timestep " << timestep;
  return os.str();
}

}  // namespace

WorkerFault::WorkerFault(PartitionId partition, Timestep timestep, Site site)
    : partition_(partition),
      timestep_(timestep),
      site_(site),
      what_(describe(partition, timestep, site)) {}

FaultInjector& FaultInjector::global() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::arm(std::vector<FaultSpec> plan, std::uint64_t seed) {
  std::lock_guard lock(mutex_);
  plan_ = std::move(plan);
  fired_ = 0;
  rng_.emplace(seed);
  bool any = false;
  for (const auto& spec : plan_) {
    any = any || spec.fires > 0;
  }
  armed_.store(any, std::memory_order_relaxed);  // tsg:mo(gate flag; the plan itself is published under mutex_)
}

void FaultInjector::disarm() {
  std::lock_guard lock(mutex_);
  plan_.clear();
  armed_.store(false, std::memory_order_relaxed);  // tsg:mo(gate flag; the plan itself is published under mutex_)
}

std::optional<FaultSpec> FaultInjector::fire(Site site, PartitionId partition,
                                             Timestep timestep,
                                             std::optional<Action> filter) {
  if (!armed()) {
    return std::nullopt;
  }
  std::lock_guard lock(mutex_);
  FaultSpec* match = nullptr;
  bool budget_left = false;
  for (auto& spec : plan_) {
    if (spec.fires <= 0) {
      continue;
    }
    const bool hits =
        spec.site == site && (!filter.has_value() || spec.action == *filter) &&
        (spec.partition == kInvalidPartition || spec.partition == partition) &&
        (spec.timestep < 0 || spec.timestep == timestep);
    if (hits && match == nullptr) {
      match = &spec;
      continue;  // keep scanning to know whether budget remains elsewhere
    }
    budget_left = true;
  }
  if (match == nullptr) {
    return std::nullopt;
  }
  --match->fires;
  ++fired_;
  FaultSpec fired = *match;
  if (match->fires > 0) {
    budget_left = true;
  }
  if (fired.action == Action::kDelay && rng_.has_value()) {
    // Seeded jitter: +-25% so delays do not resonate with the barrier.
    const std::int64_t base = fired.delay_us;
    fired.delay_us = base + rng_->uniformInt(-base / 4, base / 4);
  }
  if (!budget_left) {
    armed_.store(false, std::memory_order_relaxed);  // tsg:mo(budget exhausted; a lagging disarm is harmless)
  }
  MetricsRegistry::global().counter("fault.injected").increment();
  TSG_LOG(Warn) << "fault injector: firing " << actionName(fired.action)
                << "@" << siteName(fired.site) << " at partition " << partition
                << ", timestep " << timestep;
  return fired;
}

std::uint64_t FaultInjector::totalFired() const {
  std::lock_guard lock(mutex_);
  return fired_;
}

namespace {

Status badPlan(const std::string& text, const std::string& why) {
  return Status::invalidArgument("bad fault plan '" + text + "': " + why);
}

bool parseNumber(const std::string& text, std::int64_t& out) {
  if (text.empty()) {
    return false;
  }
  std::size_t pos = 0;
  try {
    out = std::stoll(text, &pos);
  } catch (const std::exception&) {
    return false;
  }
  return pos == text.size();
}

}  // namespace

Result<std::vector<FaultSpec>> parseFaultPlan(const std::string& text) {
  std::vector<FaultSpec> plan;
  std::istringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (item.empty()) {
      continue;
    }
    const std::size_t at = item.find('@');
    if (at == std::string::npos) {
      return badPlan(item, "expected <action>@<site>");
    }
    const std::string action_text = item.substr(0, at);
    std::string rest = item.substr(at + 1);

    FaultSpec spec;
    if (action_text == "kill") {
      spec.action = Action::kKill;
    } else if (action_text == "drop") {
      spec.action = Action::kDrop;
    } else if (action_text == "delay") {
      spec.action = Action::kDelay;
    } else if (action_text == "fail") {
      spec.action = Action::kFailLoad;
    } else {
      return badPlan(item, "unknown action '" + action_text + "'");
    }

    std::istringstream seg_stream(rest);
    std::string seg;
    bool have_site = false;
    while (std::getline(seg_stream, seg, ':')) {
      if (seg.empty()) {
        return badPlan(item, "empty segment");
      }
      if (!have_site) {
        if (seg == "compute") {
          spec.site = Site::kCompute;
        } else if (seg == "barrier") {
          spec.site = Site::kBarrier;
        } else if (seg == "deliver") {
          spec.site = Site::kDeliver;
        } else if (seg == "slice-load") {
          spec.site = Site::kSliceLoad;
        } else {
          return badPlan(item, "unknown site '" + seg + "'");
        }
        have_site = true;
        continue;
      }
      std::int64_t value = 0;
      if (!parseNumber(seg.substr(1), value)) {
        return badPlan(item, "malformed segment '" + seg + "'");
      }
      switch (seg[0]) {
        case 'p':
          if (value < 0) {
            return badPlan(item, "negative partition");
          }
          spec.partition = static_cast<PartitionId>(value);
          break;
        case 't':
          spec.timestep = static_cast<Timestep>(value);
          break;
        case 'x':
          if (value <= 0) {
            return badPlan(item, "fire budget must be positive");
          }
          spec.fires = static_cast<std::int32_t>(value);
          break;
        case 'd':
          if (value <= 0) {
            return badPlan(item, "delay must be positive");
          }
          spec.delay_us = value;
          break;
        default:
          return badPlan(item, "unknown segment '" + seg + "'");
      }
    }
    if (!have_site) {
      return badPlan(item, "missing site");
    }

    // Reject action/site combinations no hook implements, so a plan that
    // could never fire fails loudly instead of running fault-free.
    const bool legal =
        (spec.action == Action::kKill && spec.site != Site::kDeliver) ||
        (spec.action == Action::kDrop && spec.site == Site::kDeliver) ||
        (spec.action == Action::kDelay &&
         (spec.site == Site::kDeliver || spec.site == Site::kCompute)) ||
        (spec.action == Action::kFailLoad && spec.site == Site::kSliceLoad);
    if (!legal) {
      return badPlan(item, std::string(actionName(spec.action)) +
                               " is not supported at site " +
                               std::string(siteName(spec.site)));
    }
    plan.push_back(spec);
  }
  if (plan.empty()) {
    return badPlan(text, "empty plan");
  }
  return plan;
}

Status armFromEnv() {
  const char* plan_text = std::getenv("TSG_INJECT");
  if (plan_text == nullptr || plan_text[0] == '\0') {
    return Status::ok();
  }
  auto plan = parseFaultPlan(plan_text);
  if (!plan.isOk()) {
    return Status::invalidArgument("TSG_INJECT: " + plan.status().message());
  }
  std::int64_t seed = 42;
  if (const char* seed_text = std::getenv("TSG_INJECT_SEED")) {
    if (!parseNumber(seed_text, seed)) {
      return Status::invalidArgument(
          "TSG_INJECT_SEED: not an integer: '" + std::string(seed_text) + "'");
    }
  }
  FaultInjector::global().arm(std::move(plan).value(),
                              static_cast<std::uint64_t>(seed));
  TSG_LOG(Info) << "fault injector armed from TSG_INJECT='" << plan_text
                << "'";
  return Status::ok();
}

}  // namespace fault
}  // namespace tsg
