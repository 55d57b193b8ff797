#include "net/sdn_switch.hpp"

#include <algorithm>
#include <cassert>

#include "util/log.hpp"

namespace drowsy::net {

SdnSwitch::SdnSwitch(Dispatcher& dispatcher, util::SimTime port_latency,
                     util::SimTime serialization)
    : dispatcher_(dispatcher), port_latency_(port_latency), serialization_(serialization) {
  assert(port_latency >= 0 && serialization >= 0);
}

void SdnSwitch::attach_port(MacAddress mac, std::function<void(const Packet&)> deliver) {
  const std::optional<std::uint32_t> host = mac.host_index();
  assert(host.has_value() && "a port takes a MacAddress::for_host");
  if (!host) return;
  if (*host >= ports_.size()) ports_.resize(std::size_t{*host} + 1);
  auto& port = ports_[*host];
  assert(port == nullptr && "a MAC takes one port");
  if (port == nullptr) port = std::make_unique<const Deliver>(std::move(deliver));
}

void SdnSwitch::add_analyzer(PacketAnalyzer analyzer) {
  analyzers_.push_back(std::move(analyzer));
}

bool SdnSwitch::inject(const Packet& packet) {
  Packet stamped = packet;
  if (stamped.sent_at < 0) stamped.sent_at = dispatcher_.now();
  for (const auto& analyzer : analyzers_) analyzer(stamped);
  const std::uint32_t host = stamped.dst_mac.host_index().value_or(UINT32_MAX);
  const Deliver* deliver = host < ports_.size() ? ports_[host].get() : nullptr;
  if (deliver == nullptr) {
    ++dropped_;
    DROWSY_LOG_DEBUG("sdn", "no port for %s", stamped.dst_mac.to_string().c_str());
    return false;
  }
  ++forwarded_;
  // A request frame that would be the next event anyway is delivered
  // now, without one.  WoL frames stay events: the waking module's
  // analyzer injects them midway through another frame's inject.
  if (stamped.kind == PacketKind::Request && port_latency_ == 0 && serialization_ == 0 &&
      dispatcher_.would_run_next()) {
    (*deliver)(stamped);
    return true;
  }
  // The frame waits for the egress pipe, occupies it for its
  // serialization, then takes the port latency to reach its port.  Only
  // frames that found the pipe busy are sampled: the zero delay of every
  // uncontended frame would bury a storm's queueing.
  const util::SimTime now = dispatcher_.now();
  const util::SimTime start = std::max(now, busy_until_);
  if (start > now) queue_delay_ms_.add(static_cast<double>(start - now));
  busy_until_ = start + serialization_;
  // {pointer, Packet} fits util::InlineFn's buffer: no allocation per
  // frame.
  dispatcher_.schedule_after(busy_until_ + port_latency_ - now,
                             [deliver, stamped] { (*deliver)(stamped); },
                             obs::EventTag::NetsimFrame);
  return true;
}

bool SdnSwitch::send_wol(MacAddress mac) {
  Packet p;
  p.kind = PacketKind::WakeOnLan;
  p.dst_mac = mac;
  p.id = ++wol_frames_;
  return inject(p);
}

}  // namespace drowsy::net
