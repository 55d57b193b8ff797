#include "sim/cluster.hpp"

#include <cassert>

#include "util/log.hpp"
#include "util/math.hpp"

namespace drowsy::sim {

Cluster::Cluster(EventQueue& queue, ClusterConfig config)
    : queue_(queue), config_(config) {}

Host& Cluster::add_host(HostSpec spec) {
  const HostId id = static_cast<HostId>(hosts_.size());
  hosts_.push_back(std::make_unique<Host>(id, std::move(spec), config_.power, queue_));
  return *hosts_.back();
}

Vm& Cluster::add_vm(VmSpec spec, std::shared_ptr<const trace::ActivityTrace> workload) {
  const VmId id = static_cast<VmId>(vms_.size());
  vms_.push_back(std::make_unique<Vm>(id, std::move(spec), std::move(workload)));
  placement_.push_back(kUnplaced);
  return *vms_.back();
}

Host* Cluster::host(HostId id) {
  return id < hosts_.size() ? hosts_[id].get() : nullptr;
}

Vm* Cluster::vm(VmId id) { return id < vms_.size() ? vms_[id].get() : nullptr; }

Vm* Cluster::vm_by_ip(net::Ipv4 ip) {
  const std::uint32_t index = ip.vm_index();
  return index < vms_.size() ? vms_[index].get() : nullptr;
}

bool Cluster::place(VmId vm_id, HostId host_id) {
  Vm* v = vm(vm_id);
  Host* h = host(host_id);
  assert(v != nullptr && h != nullptr);
  assert(placement_[vm_id] == kUnplaced && "already placed; use migrate");
  if (!h->can_host(v->spec())) return false;
  h->attach_vm(*v);
  placement_[vm_id] = host_id;
  return true;
}

bool Cluster::migrate(VmId vm_id, HostId dst_id) {
  Vm* v = vm(vm_id);
  Host* dst = host(dst_id);
  assert(v != nullptr && dst != nullptr);
  HostId& at = placement_[vm_id];
  assert(at != kUnplaced && "migrate requires a current placement");
  if (at == dst_id) return false;
  if (!dst->can_host(v->spec())) return false;

  Host* src = host(at);
  // Live migration needs both endpoints powered: wake a drowsy party.
  if (src->state() != PowerState::S0) src->begin_resume();
  if (dst->state() != PowerState::S0) dst->begin_resume();
  src->detach_vm(vm_id);
  dst->attach_vm(*v);
  at = dst_id;
  v->note_migration();
  ++total_migrations_;
  DROWSY_LOG_DEBUG("cluster", "migrated %s: %s -> %s", v->name().c_str(),
                   src->name().c_str(), dst->name().c_str());
  return true;
}

bool Cluster::apply_assignment(const std::vector<std::pair<VmId, HostId>>& targets) {
  // Final residency: current placement overridden by the targets.
  std::vector<HostId> final_host = placement_;
  for (const auto& [vm_id, host_id] : targets) {
    assert(vm(vm_id) != nullptr && host(host_id) != nullptr);
    final_host[vm_id] = host_id;
  }
  // Validate capacity of the final state per host.
  struct Usage {
    int vcpus = 0;
    int mem = 0;
    int count = 0;
  };
  std::vector<Usage> usage(hosts_.size());
  for (VmId vm_id = 0; vm_id < final_host.size(); ++vm_id) {
    if (final_host[vm_id] == kUnplaced) continue;
    const VmSpec& spec = vms_[vm_id]->spec();
    Usage& u = usage[final_host[vm_id]];
    u.vcpus += spec.vcpus;
    u.mem += spec.memory_mb;
    u.count += 1;
  }
  for (HostId host_id = 0; host_id < usage.size(); ++host_id) {
    const Usage& u = usage[host_id];
    const HostSpec& hs = hosts_[host_id]->spec();
    if (u.vcpus > hs.cpu_capacity || u.mem > hs.memory_mb) return false;
    if (hs.max_vms > 0 && u.count > hs.max_vms) return false;
  }
  // Commit in two phases (detach everything that moves, then attach) so
  // circular swaps never trip the incremental capacity check.
  std::vector<std::pair<VmId, HostId>> moves;
  for (const auto& [vm_id, host_id] : targets) {
    HostId& at = placement_[vm_id];
    if (at == host_id) continue;
    moves.emplace_back(vm_id, host_id);
    if (at != kUnplaced) {
      Vm* v = vm(vm_id);
      Host* src = host(at);
      if (src->state() != PowerState::S0) src->begin_resume();
      src->detach_vm(vm_id);
      v->note_migration();
      ++total_migrations_;
    }
    at = host_id;
  }
  for (const auto& [vm_id, host_id] : moves) {
    Host* dst = host(host_id);
    if (dst->state() != PowerState::S0) dst->begin_resume();
    dst->attach_vm(*vm(vm_id));
  }
  return true;
}

void Cluster::account_hour(std::int64_t h) {
  for (auto& v : vms_) v->account_hour(h);
  for (auto& host_ptr : hosts_) {
    host_ptr->set_utilization(host_utilization_at(*host_ptr, h));
  }
}

double Cluster::host_utilization_at(const Host& h, std::int64_t hour) const {
  double used = 0.0;
  for (const Vm* v : h.vms()) {
    used += v->activity_at_hour(hour) * v->spec().vcpus;
  }
  return util::clamp(used / static_cast<double>(h.spec().cpu_capacity), 0.0, 1.0);
}

double Cluster::total_kwh() {
  double kwh = 0.0;
  for (auto& h : hosts_) {
    h->account_now();
    kwh += h->energy().kwh();
  }
  return kwh;
}

}  // namespace drowsy::sim
