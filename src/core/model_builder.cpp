#include "core/model_builder.hpp"

#include <algorithm>

namespace drowsy::core {

ModelBuilder::ModelBuilder(IdlenessModelConfig config) : config_(config) {}

IdlenessModel& ModelBuilder::model(sim::VmId vm) {
  if (vm >= models_.size()) models_.resize(vm + 1);
  if (!models_[vm]) models_[vm] = std::make_unique<IdlenessModel>(config_);
  return *models_[vm];
}

const IdlenessModel* ModelBuilder::find(sim::VmId vm) const {
  return vm < models_.size() && models_[vm] ? models_[vm].get() : nullptr;
}

void ModelBuilder::observe_hour(const sim::Cluster& cluster, std::int64_t h) {
  const util::CalendarTime c = util::calendar_of(h * util::kMsPerHour);
  for (const auto& vm : cluster.vms()) {
    if (cluster.host_of(vm->id()) == nullptr) continue;
    model(vm->id()).observe_hour(c, vm->guest().last_hour_activity());
  }
}

IdlenessProbability ModelBuilder::vm_ip(sim::VmId vm, const util::CalendarTime& c) const {
  const IdlenessModel* m = find(vm);
  return m == nullptr ? IdlenessProbability{} : m->ip(c);
}

IdlenessProbability ModelBuilder::host_ip(const sim::Host& host,
                                          const util::CalendarTime& c) const {
  const auto& vms = host.vms();
  if (vms.empty()) return IdlenessProbability{};
  double sum = 0.0;
  for (const sim::Vm* vm : vms) sum += vm_ip(vm->id(), c).raw;
  return IdlenessProbability{sum / static_cast<double>(vms.size())};
}

double ModelBuilder::host_ip_range(const sim::Host& host,
                                   const util::CalendarTime& c) const {
  const auto& vms = host.vms();
  if (vms.size() < 2) return 0.0;
  double lo = 1.0, hi = -1.0;
  for (const sim::Vm* vm : vms) {
    const double ip = vm_ip(vm->id(), c).raw;
    lo = std::min(lo, ip);
    hi = std::max(hi, ip);
  }
  return hi - lo;
}

}  // namespace drowsy::core
