#include "core/waking_module.hpp"

#include <cassert>

#include "util/log.hpp"

namespace drowsy::core {

WakingModule::WakingModule(sim::Cluster& cluster, net::SdnSwitch& sw, WakingConfig config,
                           std::string name, bool active)
    : cluster_(cluster),
      switch_(sw),
      config_(config),
      name_(std::move(name)),
      active_(active),
      wol_(sw) {}

void WakingModule::install_analyzer() {
  switch_.add_analyzer([this](const net::Packet& p) { analyze(p); });
}

sim::Host* WakingModule::host_by_mac(const net::MacAddress& mac) {
  auto it = mac_index_.find(mac);
  return it == mac_index_.end() ? nullptr : cluster_.host(it->second);
}

void WakingModule::analyze(const net::Packet& packet) {
  ++stats_.analyzed_packets;
  if (!active_ || packet.kind != net::PacketKind::Request) return;
  // The paper's fast path: one hashmap probe on the destination IP.
  auto it = vm_to_host_.find(packet.dst);
  if (it != vm_to_host_.end()) {
    sim::Host* host = host_by_mac(it->second);
    if (host != nullptr && host->state() != sim::PowerState::S0 &&
        !wol_pending_.contains(it->second)) {
      wol_pending_.insert(it->second);
      ++stats_.packet_wakes;
      DROWSY_LOG_DEBUG("waking", "%s: inbound request for %s wakes %s", name_.c_str(),
                       packet.dst.to_string().c_str(), host->name().c_str());
      send_wol(it->second);
    }
  }
}

void WakingModule::on_host_suspending(const sim::Host& host, util::SimTime wake_date) {
  mac_index_[host.mac()] = host.id();
  // Refresh the VM→MAC map for this host's residents.
  for (const sim::Vm* vm : host.vms()) vm_to_host_[vm->ip()] = host.mac();

  if (wake_date != util::kNever) {
    schedule_.emplace(wake_date, host.mac());
    // Send the WoL ahead of the deadline to absorb the resume latency.
    const util::SimTime fire_at =
        std::max(cluster_.queue().now(), wake_date - config_.wake_lead);
    cluster_.queue().schedule_at(
        fire_at, [this, wake_date, mac = host.mac()] { fire_scheduled(wake_date, mac); },
        obs::EventTag::Wake);
  }
  if (mirror_ != nullptr) mirror_->on_host_suspending(host, wake_date);
}

void WakingModule::on_host_resumed(const sim::Host& host) {
  wol_pending_.erase(host.mac());
  if (mirror_ != nullptr) mirror_->on_host_resumed(host);
}

void WakingModule::fire_scheduled(util::SimTime due, net::MacAddress mac) {
  // Drop the registration whether or not we act on it.
  for (auto it = schedule_.find(due); it != schedule_.end() && it->first == due; ++it) {
    if (it->second == mac) {
      schedule_.erase(it);
      break;
    }
  }
  if (!active_) return;  // standby: the primary handles it
  sim::Host* host = host_by_mac(mac);
  if (host == nullptr || host->state() == sim::PowerState::S0) return;
  ++stats_.scheduled_wakes;
  DROWSY_LOG_DEBUG("waking", "%s: scheduled wake of %s (due %s)", name_.c_str(),
                   host->name().c_str(), util::format_duration(due).c_str());
  send_wol(mac);
}

void WakingModule::send_wol(net::MacAddress mac) { wol_.send(mac); }

}  // namespace drowsy::core
