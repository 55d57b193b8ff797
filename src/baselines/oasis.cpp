#include "baselines/oasis.hpp"

#include <algorithm>
#include <cassert>

#include "util/log.hpp"

namespace drowsy::baselines {

OasisConsolidation::OasisConsolidation(sim::Cluster& cluster, int repack_period_hours)
    : cluster_(cluster), repack_period_hours_(repack_period_hours) {}

void OasisConsolidation::record_hour(std::int64_t hour) {
  idle_history_.resize(cluster_.vms().size());
  for (const auto& vm : cluster_.vms()) {
    if (cluster_.host_of(vm->id()) == nullptr) continue;
    auto& hist = idle_history_[vm->id()];
    hist.push_back(vm->activity_at_hour(hour) < kern::kNoiseFloor);
    while (hist.size() > kWindowHours) hist.pop_front();
  }
}

double OasisConsolidation::pair_score(sim::VmId a, sim::VmId b) const {
  if (a >= idle_history_.size() || b >= idle_history_.size()) return 0.0;
  const auto& ha = idle_history_[a];
  const auto& hb = idle_history_[b];
  const std::size_t n = std::min(ha.size(), hb.size());
  if (n == 0) return 0.0;
  std::size_t agree = 0;
  // Compare the most recent n entries of each.
  for (std::size_t k = 0; k < n; ++k) {
    if (ha[ha.size() - 1 - k] == hb[hb.size() - 1 - k]) ++agree;
  }
  return static_cast<double>(agree) / static_cast<double>(n);
}

void OasisConsolidation::repack() {
  // Collect placed VMs.
  std::vector<sim::Vm*> vms;
  for (const auto& vm : cluster_.vms()) {
    if (cluster_.host_of(vm->id()) != nullptr) vms.push_back(vm.get());
  }
  if (vms.size() < 2) return;

  // O(n^2) pairwise scores, greedy disjoint matching, best pairs first.
  struct Pair {
    sim::Vm* a;
    sim::Vm* b;
    double score;
  };
  std::vector<Pair> pairs;
  pairs.reserve(vms.size() * (vms.size() - 1) / 2);
  for (std::size_t i = 0; i < vms.size(); ++i) {
    for (std::size_t j = i + 1; j < vms.size(); ++j) {
      const double s = pair_score(vms[i]->id(), vms[j]->id());
      if (s >= kMinScore) pairs.push_back({vms[i], vms[j], s});
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const Pair& x, const Pair& y) { return x.score > y.score; });

  std::vector<bool> matched(cluster_.vms().size());
  std::vector<std::vector<sim::Vm*>> groups;
  for (const Pair& p : pairs) {
    if (matched[p.a->id()] || matched[p.b->id()]) continue;
    matched[p.a->id()] = matched[p.b->id()] = true;
    groups.push_back({p.a, p.b});
  }
  for (sim::Vm* vm : vms) {
    if (!matched[vm->id()]) groups.push_back({vm});
  }

  // First-fit the groups onto hosts (groups with the most co-idleness
  // first, so they land on hosts that can sleep together).
  std::vector<std::pair<sim::VmId, sim::HostId>> assignment;
  const auto& hosts = cluster_.hosts();
  struct Room {
    int vcpus, mem, slots;
  };
  std::vector<Room> room;
  room.reserve(hosts.size());
  for (const auto& h : hosts) {
    room.push_back({h->spec().cpu_capacity, h->spec().memory_mb,
                    h->spec().max_vms > 0 ? h->spec().max_vms : INT32_MAX});
  }
  for (const auto& group : groups) {
    int need_cpu = 0, need_mem = 0;
    for (const sim::Vm* vm : group) {
      need_cpu += vm->spec().vcpus;
      need_mem += vm->spec().memory_mb;
    }
    for (std::size_t hi = 0; hi < hosts.size(); ++hi) {
      Room& r = room[hi];
      if (r.slots >= static_cast<int>(group.size()) && r.vcpus >= need_cpu &&
          r.mem >= need_mem) {
        for (const sim::Vm* vm : group) {
          assignment.emplace_back(vm->id(), hosts[hi]->id());
        }
        r.slots -= static_cast<int>(group.size());
        r.vcpus -= need_cpu;
        r.mem -= need_mem;
        break;
      }
    }
  }
  if (!cluster_.apply_assignment(assignment)) {
    DROWSY_LOG_WARN("oasis", "repack assignment rejected (capacity)");
  }
}

void OasisConsolidation::run_hour(std::int64_t next_hour) {
  record_hour(next_hour - 1);
  ++hours_seen_;
  if (hours_seen_ % repack_period_hours_ == 0) repack();
}

}  // namespace drowsy::baselines
