#include "baselines/neat.hpp"

#include <algorithm>

namespace drowsy::baselines {

std::vector<sim::Vm*> NeatConsolidation::select_vms(sim::Host& host,
                                                    std::int64_t next_hour) {
  // Pick VMs one by one until the host is no longer overloaded.
  std::vector<sim::Vm*> pool = host.vms();
  std::vector<sim::Vm*> picked;
  double util = cluster_.host_utilization_at(host, next_hour);
  while (!pool.empty() && overloaded(util)) {
    // Minimum migration time: smallest memory first.
    std::size_t pick = 0;
    for (std::size_t i = 1; i < pool.size(); ++i) {
      if (pool[i]->spec().memory_mb < pool[pick]->spec().memory_mb) pick = i;
    }
    sim::Vm* vm = pool[pick];
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    picked.push_back(vm);
    util -= vm->activity_at_hour(next_hour) *
            static_cast<double>(vm->spec().vcpus) /
            static_cast<double>(host.spec().cpu_capacity);
  }
  return picked;
}

void NeatConsolidation::place_pabfd(std::vector<sim::Vm*>& vms, std::int64_t next_hour,
                                    const sim::Host* exclude) {
  // Best-fit decreasing: biggest CPU demand first, each to the host with
  // the least power increase (Beloglazov's PABFD).
  std::sort(vms.begin(), vms.end(), [next_hour](const sim::Vm* a, const sim::Vm* b) {
    return a->activity_at_hour(next_hour) * a->spec().vcpus >
           b->activity_at_hour(next_hour) * b->spec().vcpus;
  });
  for (sim::Vm* vm : vms) {
    sim::Host* best = nullptr;
    double best_delta = 0.0;
    for (const auto& host : cluster_.hosts()) {
      if (host.get() == exclude) continue;
      if (!host->can_host(vm->spec())) continue;
      const double before = cluster_.host_utilization_at(*host, next_hour);
      const double added = vm->activity_at_hour(next_hour) *
                           static_cast<double>(vm->spec().vcpus) /
                           static_cast<double>(host->spec().cpu_capacity);
      const double after = std::min(1.0, before + added);
      if (overloaded(after)) continue;
      const auto& pm = host->power_model();
      const double delta = pm.watts(sim::PowerState::S0, after) -
                           pm.watts(sim::PowerState::S0, before);
      if (best == nullptr || delta < best_delta) {
        best = host.get();
        best_delta = delta;
      }
    }
    if (best != nullptr) cluster_.migrate(vm->id(), best->id());
  }
}

void NeatConsolidation::run_hour(std::int64_t next_hour) {
  // (2)+(3)+(4): overloaded hosts shed VMs.
  for (const auto& host : cluster_.hosts()) {
    const double util = cluster_.host_utilization_at(*host, next_hour);
    if (!overloaded(util)) continue;
    auto vms = select_vms(*host, next_hour);
    place_pabfd(vms, next_hour, host.get());
  }

  // (1): underloaded hosts try to fully evacuate, least utilized first.
  std::vector<sim::Host*> order;
  for (const auto& host : cluster_.hosts()) {
    if (!host->vms().empty()) order.push_back(host.get());
  }
  std::sort(order.begin(), order.end(), [&](const sim::Host* a, const sim::Host* b) {
    return cluster_.host_utilization_at(*a, next_hour) <
           cluster_.host_utilization_at(*b, next_hour);
  });
  for (sim::Host* host : order) {
    const double util = cluster_.host_utilization_at(*host, next_hour);
    if (util >= core::kUnderloadUtilization) continue;
    // A suspended host is already saving power; evacuating it would only
    // wake it for the migrations.
    if (host->state() != sim::PowerState::S0) continue;
    // Feasibility: every VM must fit some other non-empty host without
    // overloading it.
    std::vector<std::pair<sim::VmId, sim::HostId>> plan;
    bool feasible = true;
    for (sim::Vm* vm : host->vms()) {
      sim::Host* best = nullptr;
      double best_delta = 0.0;
      for (const auto& other : cluster_.hosts()) {
        if (other.get() == host || other->vms().empty()) continue;
        if (!other->can_host(vm->spec())) continue;
        const double before = cluster_.host_utilization_at(*other, next_hour);
        const double added = vm->activity_at_hour(next_hour) *
                             static_cast<double>(vm->spec().vcpus) /
                             static_cast<double>(other->spec().cpu_capacity);
        if (overloaded(before + added)) continue;
        const auto& pm = other->power_model();
        const double delta = pm.watts(sim::PowerState::S0, std::min(1.0, before + added)) -
                             pm.watts(sim::PowerState::S0, before);
        if (best == nullptr || delta < best_delta) {
          best = other.get();
          best_delta = delta;
        }
      }
      if (best == nullptr) {
        feasible = false;
        break;
      }
      plan.emplace_back(vm->id(), best->id());
    }
    if (feasible) {
      for (const auto& [vm_id, dst] : plan) cluster_.migrate(vm_id, dst);
    }
  }
}

}  // namespace drowsy::baselines
