#include "core/waking_module.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace drowsy::core {

WakingModule::WakingModule(sim::Cluster& cluster, net::SdnSwitch& sw, std::string name)
    : cluster_(cluster), switch_(sw), name_(std::move(name)) {}

void WakingModule::activate() {
  active_ = true;
  if (analyzing_) return;
  analyzing_ = true;
  switch_.add_analyzer([this](const net::Packet& p) { analyze(p); });
}

void WakingModule::analyze(const net::Packet& packet) {
  ++stats_.analyzed_packets;
  if (!active_ || packet.kind != net::PacketKind::Request) return;
  // The paper's fast path: one indexed probe on the destination IP.
  const std::uint32_t vm = packet.dst.vm_index();
  if (vm >= vm_to_host_.size() || vm_to_host_[vm] == kNoHost) return;
  const sim::HostId host_id = vm_to_host_[vm];
  sim::Host* host = cluster_.host(host_id);
  if (host->state() != sim::PowerState::S0 && !wol_pending_[host_id]) {
    wol_pending_[host_id] = true;
    ++stats_.packet_wakes;
    DROWSY_LOG_DEBUG("waking", "%s: inbound request for %s wakes %s", name_.c_str(),
                     packet.dst.to_string().c_str(), host->name().c_str());
    switch_.send_wol(host->mac());
  }
}

void WakingModule::on_host_suspending(const sim::Host& host, util::SimTime wake_date) {
  // Refresh the VM→host map for this host's residents.
  for (const sim::Vm* vm : host.vms()) {
    if (vm->id() >= vm_to_host_.size()) vm_to_host_.resize(vm->id() + 1, kNoHost);
    vm_to_host_[vm->id()] = host.id();
  }
  if (host.id() >= wol_pending_.size()) wol_pending_.resize(host.id() + 1);

  if (wake_date != util::kNever) {
    // Send the WoL ahead of the deadline to absorb the resume latency.
    const util::SimTime fire_at =
        std::max(cluster_.queue().now(), wake_date - kWakeLead);
    cluster_.queue().schedule_at(
        fire_at, [this, wake_date, id = host.id()] { fire_scheduled(wake_date, id); },
        obs::EventTag::Wake);
  }
  if (mirror_ != nullptr) mirror_->on_host_suspending(host, wake_date);
}

void WakingModule::on_host_resumed(const sim::Host& host) {
  if (host.id() < wol_pending_.size()) wol_pending_[host.id()] = false;
  if (mirror_ != nullptr) mirror_->on_host_resumed(host);
}

void WakingModule::fire_scheduled(util::SimTime due, sim::HostId host_id) {
  if (!active_) return;  // standby: the primary handles it
  sim::Host* host = cluster_.host(host_id);
  if (host->state() == sim::PowerState::S0) return;
  ++stats_.scheduled_wakes;
  DROWSY_LOG_DEBUG("waking", "%s: scheduled wake of %s (due %s)", name_.c_str(),
                   host->name().c_str(), util::format_duration(due).c_str());
  switch_.send_wol(host->mac());
}

}  // namespace drowsy::core
