#include "trace/trace.hpp"

#include <cassert>

#include "kern/guest_os.hpp"

namespace drowsy::trace {

namespace {
/// The taxonomy's cutoffs (after Zhang et al., §I): a VM that lives under
/// a week is short-lived; a long-lived one idle at least half the time
/// is mostly idle.
constexpr std::size_t kShortLifetimeHours = 7 * 24;
constexpr double kLlmiIdleFraction = 0.5;
}  // namespace

const char* to_string(VmClass c) {
  switch (c) {
    case VmClass::Slmu: return "SLMU";
    case VmClass::Llmu: return "LLMU";
    case VmClass::Llmi: return "LLMI";
  }
  return "?";
}

ActivityTrace::ActivityTrace(std::vector<double> hourly, std::string name)
    : hours_(std::move(hourly)), name_(std::move(name)) {
  for ([[maybe_unused]] double v : hours_) assert(v >= 0.0 && v <= 1.0);
}

double ActivityTrace::at_hour(std::size_t h) const {
  assert(!hours_.empty());
  return hours_[h % hours_.size()];
}

double ActivityTrace::idle_fraction() const {
  if (hours_.empty()) return 1.0;
  std::size_t idle = 0;
  for (double v : hours_) {
    if (v < kern::kNoiseFloor) ++idle;
  }
  return static_cast<double>(idle) / static_cast<double>(hours_.size());
}

double ActivityTrace::mean_activity() const {
  if (hours_.empty()) return 0.0;
  double acc = 0.0;
  for (double v : hours_) acc += v;
  return acc / static_cast<double>(hours_.size());
}

VmClass ActivityTrace::classify() const {
  if (hours_.size() < kShortLifetimeHours) return VmClass::Slmu;
  return idle_fraction() >= kLlmiIdleFraction ? VmClass::Llmi : VmClass::Llmu;
}

}  // namespace drowsy::trace
