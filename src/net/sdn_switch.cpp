#include "net/sdn_switch.hpp"

#include "util/log.hpp"

namespace drowsy::net {

SdnSwitch::SdnSwitch(Dispatcher& dispatcher, util::SimTime port_latency)
    : dispatcher_(dispatcher), port_latency_(port_latency) {}

void SdnSwitch::attach_port(MacAddress mac, std::function<void(const Packet&)> deliver) {
  ports_[mac] = std::make_shared<const Deliver>(std::move(deliver));
}

void SdnSwitch::detach_port(const MacAddress& mac) { ports_.erase(mac); }

void SdnSwitch::bind_ip(Ipv4 ip, MacAddress host_mac) { forwarding_[ip] = host_mac; }

void SdnSwitch::unbind_ip(Ipv4 ip) { forwarding_.erase(ip); }

const MacAddress* SdnSwitch::lookup_ip(Ipv4 ip) const {
  auto it = forwarding_.find(ip);
  return it == forwarding_.end() ? nullptr : &it->second;
}

void SdnSwitch::add_analyzer(PacketAnalyzer analyzer) {
  analyzers_.push_back(std::move(analyzer));
}

bool SdnSwitch::inject(const Packet& packet) {
  Packet stamped = packet;
  if (stamped.sent_at < 0) stamped.sent_at = dispatcher_.now();
  for (const auto& analyzer : analyzers_) analyzer(stamped);
  if (stamped.kind == PacketKind::WakeOnLan) {
    return deliver_to_mac(stamped.dst_mac, stamped);
  }
  auto it = forwarding_.find(stamped.dst);
  if (it == forwarding_.end()) {
    ++dropped_;
    DROWSY_LOG_DEBUG("sdn", "no route for %s", stamped.dst.to_string().c_str());
    return false;
  }
  return deliver_to_mac(it->second, stamped);
}

bool SdnSwitch::deliver_to_mac(const MacAddress& mac, const Packet& packet) {
  auto it = ports_.find(mac);
  if (it == ports_.end()) {
    ++dropped_;
    DROWSY_LOG_DEBUG("sdn", "no port for %s", mac.to_string().c_str());
    return false;
  }
  ++forwarded_;
  // {shared_ptr, Packet} fits util::InlineFn's buffer: no allocation per
  // frame.  Holding the callback keeps a detached port's delivery valid.
  dispatcher_.schedule_after(port_latency_,
                             [deliver = it->second, packet] { (*deliver)(packet); },
                             obs::EventTag::NetsimFrame);
  return true;
}

}  // namespace drowsy::net
