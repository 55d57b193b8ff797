#include "trace/trace.hpp"

#include <cassert>

namespace drowsy::trace {

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

double ActivityTrace::idle_fraction(double idle_threshold) const {
  if (hours_.empty()) return 1.0;
  std::size_t idle = 0;
  for (double v : hours_) {
    if (v < idle_threshold) ++idle;
  }
  return static_cast<double>(idle) / static_cast<double>(hours_.size());
}

double ActivityTrace::mean_activity() const {
  if (hours_.empty()) return 0.0;
  double acc = 0.0;
  for (double v : hours_) acc += v;
  return acc / static_cast<double>(hours_.size());
}

VmClass ActivityTrace::classify(std::size_t short_lifetime_hours,
                                double llmi_idle_fraction) const {
  if (hours_.size() < short_lifetime_hours) return VmClass::Slmu;
  return idle_fraction() >= llmi_idle_fraction ? VmClass::Llmi : VmClass::Llmu;
}

}  // namespace drowsy::trace
