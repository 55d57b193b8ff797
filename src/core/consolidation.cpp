#include "core/consolidation.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/log.hpp"

namespace drowsy::core {

IdlenessConsolidator::IdlenessConsolidator(sim::Cluster& cluster, ModelBuilder& models,
                                           PlacementConfig config)
    : cluster_(cluster), models_(models), config_(config) {}

std::optional<sim::HostId> IdlenessConsolidator::initial_placement(
    const sim::Vm& vm, const util::CalendarTime& c) const {
  const double vm_ip = models_.vm_ip(vm.id(), c).raw;
  const sim::Host* best = nullptr;
  double best_dist = 0.0;
  for (const auto& host : cluster_.hosts()) {
    if (!host->can_host(vm.spec())) continue;  // Nova filter step
    const double host_ip = models_.host_ip(*host, c).raw;
    const double dist = std::abs(host_ip - vm_ip);
    // Weigher: minimize IP distance; on (near-)ties prefer the host whose
    // IP the VM would raise ("while aiming to increase the latter").
    const bool better =
        best == nullptr || dist < best_dist - 1e-15 ||
        (dist <= best_dist + 1e-15 && host_ip < models_.host_ip(*best, c).raw);
    if (better) {
      best = host.get();
      best_dist = dist;
    }
  }
  if (best == nullptr) return std::nullopt;
  return best->id();
}

std::vector<IdlenessConsolidator::HostView> IdlenessConsolidator::ranked_destinations(
    const sim::Vm& vm, const util::CalendarTime& c, const sim::Host* exclude) const {
  const double vm_ip = models_.vm_ip(vm.id(), c).raw;
  std::vector<HostView> views;
  for (const auto& host : cluster_.hosts()) {
    if (host.get() == exclude) continue;
    if (!host->can_host(vm.spec())) continue;
    views.push_back({host.get(), models_.host_ip(*host, c).raw});
  }
  std::sort(views.begin(), views.end(), [vm_ip](const HostView& a, const HostView& b) {
    return std::abs(a.ip - vm_ip) < std::abs(b.ip - vm_ip);
  });
  return views;
}

void IdlenessConsolidator::run_hour(std::int64_t next_hour) {
  if (relocate_all_mode_) {
    relocate_all(next_hour);
    return;
  }
  const util::CalendarTime c = util::calendar_of(next_hour * util::kMsPerHour);
  handle_overloaded(next_hour, c);
  handle_underloaded(next_hour, c);
  if (config_.opportunistic_step) opportunistic_step(c);
}

void IdlenessConsolidator::handle_overloaded(std::int64_t next_hour,
                                             const util::CalendarTime& c) {
  const double tol = kIpDistanceToleranceSigmas * models_.config().sigma;
  for (const auto& host : cluster_.hosts()) {
    if (cluster_.host_utilization_at(*host, next_hour) <= kOverloadUtilization) {
      continue;
    }
    // Step (3): select VMs to migrate — IP distance from the host first
    // (with a tolerance band), then the classic criterion (smallest memory
    // migrates fastest).
    const double host_ip = models_.host_ip(*host, c).raw;
    std::vector<sim::Vm*> candidates = host->vms();
    std::sort(candidates.begin(), candidates.end(),
              [&](const sim::Vm* a, const sim::Vm* b) {
                const double da = std::abs(models_.vm_ip(a->id(), c).raw - host_ip);
                const double db = std::abs(models_.vm_ip(b->id(), c).raw - host_ip);
                const auto bucket_a = static_cast<long>(da / tol);
                const auto bucket_b = static_cast<long>(db / tol);
                if (bucket_a != bucket_b) return bucket_a > bucket_b;  // furthest IP first
                return a->spec().memory_mb < b->spec().memory_mb;      // then fastest
              });
    for (sim::Vm* vm : candidates) {
      if (cluster_.host_utilization_at(*host, next_hour) <= kOverloadUtilization) {
        break;
      }
      // Step (4): move to the suitable host with the closest IP.
      const auto destinations = ranked_destinations(*vm, c, host.get());
      if (!destinations.empty()) {
        cluster_.migrate(vm->id(), destinations.front().host->id());
      }
    }
  }
}

void IdlenessConsolidator::handle_underloaded(std::int64_t next_hour,
                                              const util::CalendarTime& c) {
  for (const auto& host : cluster_.hosts()) {
    if (host->vms().empty()) continue;
    const double load = cluster_.host_utilization_at(*host, next_hour);
    if (load >= config_.underload_utilization) continue;
    // A suspended host already saves power; evacuating it would only wake
    // it for the migrations.
    if (host->state() != sim::PowerState::S0) continue;
    // Try to evacuate the host entirely so it can stay in a low-power
    // state; abort if some VM has no destination.
    std::vector<std::pair<sim::VmId, sim::HostId>> plan;
    bool feasible = true;
    // Biggest resource requirements first (§III-D step 4).
    std::vector<sim::Vm*> vms = host->vms();
    std::sort(vms.begin(), vms.end(), [](const sim::Vm* a, const sim::Vm* b) {
      return a->spec().memory_mb > b->spec().memory_mb;
    });
    for (sim::Vm* vm : vms) {
      const auto destinations = ranked_destinations(*vm, c, host.get());
      // Evacuating into another underloaded host just moves the problem;
      // require a destination that already has residents and that will
      // not become overloaded by the move.
      const double share = vm->activity_at_hour(next_hour) *
                           static_cast<double>(vm->spec().vcpus);
      const HostView* pick = nullptr;
      for (const auto& d : destinations) {
        if (d.host->vms().empty()) continue;
        const double after = cluster_.host_utilization_at(*d.host, next_hour) +
                             share / static_cast<double>(d.host->spec().cpu_capacity);
        if (after > kOverloadUtilization) continue;
        pick = &d;
        break;
      }
      if (pick == nullptr) {
        feasible = false;
        break;
      }
      plan.emplace_back(vm->id(), pick->host->id());
    }
    if (feasible && !plan.empty()) {
      for (const auto& [vm_id, dst] : plan) cluster_.migrate(vm_id, dst);
    }
  }
}

void IdlenessConsolidator::opportunistic_step(const util::CalendarTime& c) {
  const double threshold = kDeterminedIpSigmas * models_.config().sigma;
  for (const auto& host : cluster_.hosts()) {
    // Shed extreme VMs until the IP range closes (bounded by the resident
    // count so an unplaceable VM cannot loop forever).
    std::size_t attempts = host->vms().size();
    while (attempts-- > 0 && models_.host_ip_range(*host, c) > threshold) {
      const double host_ip = models_.host_ip(*host, c).raw;
      const double self_range = models_.host_ip_range(*host, c);
      // Most extreme VMs first; if the most extreme one has no acceptable
      // destination, try the next (e.g. the idle outlier can join another
      // idle host even when the active outlier cannot go anywhere).
      std::vector<sim::Vm*> by_extremity = host->vms();
      std::sort(by_extremity.begin(), by_extremity.end(),
                [&](const sim::Vm* a, const sim::Vm* b) {
                  return std::abs(models_.vm_ip(a->id(), c).raw - host_ip) >
                         std::abs(models_.vm_ip(b->id(), c).raw - host_ip);
                });
      bool moved = false;
      for (sim::Vm* vm : by_extremity) {
        const double vm_ip = models_.vm_ip(vm->id(), c).raw;
        for (const auto& d : ranked_destinations(*vm, c, host.get())) {
          // Only move if the destination's resulting range stays
          // acceptable (or at least improves on the spread here).
          double dst_range = 0.0;
          if (!d.host->vms().empty()) {
            double lo = vm_ip, hi = vm_ip;
            for (const sim::Vm* res : d.host->vms()) {
              const double ip = models_.vm_ip(res->id(), c).raw;
              lo = std::min(lo, ip);
              hi = std::max(hi, ip);
            }
            dst_range = hi - lo;
          }
          if (dst_range <= threshold || dst_range < self_range) {
            moved = cluster_.migrate(vm->id(), d.host->id());
            if (moved) break;
          }
        }
        if (moved) break;
      }
      if (!moved) break;
    }
  }
}

void IdlenessConsolidator::relocate_all(std::int64_t next_hour) {
  const util::CalendarTime c = util::calendar_of(next_hour * util::kMsPerHour);
  const double sigma = models_.config().sigma;
  const double threshold = kDeterminedIpSigmas * sigma;

  // Even in the §VI-A-1 "periodically relocate all VMs" mode, a global
  // repack only happens when some host's VM-IP range exceeds the 7σ
  // threshold — otherwise every host already groups matching idleness
  // patterns and relocation would churn migrations for nothing (the paper
  // reports single-digit migration counts over 7 days).
  bool too_wide = false;
  for (const auto& host : cluster_.hosts()) {
    if (models_.host_ip_range(*host, c) > threshold) {
      too_wide = true;
      break;
    }
  }
  if (!too_wide) return;

  // Sort placed VMs by IP, quantized to the distance tolerance ("there is
  // a tolerance when sorting ... so close distances are considered
  // equal").  Within a bucket, keep VMs grouped by their current host so
  // established pairs survive the re-sort.
  struct Entry {
    sim::Vm* vm;
    double ip;
    long bucket;
    sim::HostId current;
  };
  const double tol = kIpDistanceToleranceSigmas * sigma;
  std::vector<Entry> entries;
  for (const auto& vm : cluster_.vms()) {
    sim::Host* h = cluster_.host_of(vm->id());
    if (h == nullptr) continue;
    const double ip = models_.vm_ip(vm->id(), c).raw;
    entries.push_back({vm.get(), ip, std::lround(ip / tol), h->id()});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.bucket != b.bucket) return a.bucket > b.bucket;  // most idle first
    if (a.current != b.current) return a.current < b.current;
    return a.vm->id() < b.vm->id();
  });

  // Pack the sorted VMs into host-sized groups (greedy, consuming host
  // capacities in index order — uniform pools in practice).
  const auto& hosts = cluster_.hosts();
  struct Remaining {
    int vcpus, mem, slots;
  };
  std::vector<Remaining> room;
  room.reserve(hosts.size());
  for (const auto& h : hosts) {
    room.push_back({h->spec().cpu_capacity, h->spec().memory_mb,
                    h->spec().max_vms > 0 ? h->spec().max_vms : INT32_MAX});
  }
  std::vector<std::vector<const Entry*>> groups(hosts.size());
  std::size_t host_idx = 0;
  for (const Entry& e : entries) {
    while (host_idx < hosts.size()) {
      Remaining& r = room[host_idx];
      if (r.slots > 0 && r.vcpus >= e.vm->spec().vcpus && r.mem >= e.vm->spec().memory_mb) {
        r.slots -= 1;
        r.vcpus -= e.vm->spec().vcpus;
        r.mem -= e.vm->spec().memory_mb;
        groups[host_idx].push_back(&e);
        break;
      }
      ++host_idx;
    }
  }

  // Assign groups to physical hosts so that a group stays where most of
  // its members already run — the repack then only moves the VMs whose
  // grouping genuinely changed.
  std::vector<bool> host_taken(hosts.size(), false);
  std::vector<int> group_order(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) group_order[g] = static_cast<int>(g);
  // Larger groups first: they have the most to lose from a bad slot.
  std::sort(group_order.begin(), group_order.end(), [&](int a, int b) {
    return groups[a].size() > groups[b].size();
  });
  std::vector<std::pair<sim::VmId, sim::HostId>> assignment;
  for (const int g : group_order) {
    if (groups[g].empty()) continue;
    // Count current residents per candidate host.
    std::size_t best_host = SIZE_MAX;
    int best_overlap = -1;
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      if (host_taken[h]) continue;
      int overlap = 0;
      for (const Entry* e : groups[g]) {
        if (e->current == hosts[h]->id()) ++overlap;
      }
      if (overlap > best_overlap) {
        best_overlap = overlap;
        best_host = h;
      }
    }
    if (best_host == SIZE_MAX) break;  // more groups than hosts: impossible
    host_taken[best_host] = true;
    for (const Entry* e : groups[g]) {
      assignment.emplace_back(e->vm->id(), hosts[best_host]->id());
    }
  }
  if (!cluster_.apply_assignment(assignment)) {
    DROWSY_LOG_WARN("consolidate", "relocate_all assignment rejected (capacity)");
  }
}

}  // namespace drowsy::core
