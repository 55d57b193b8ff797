#include "net/addr.hpp"

#include <cstdio>

namespace drowsy::net {

std::string MacAddress::to_string() const {
  char buf[18];
  std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x", octets[0], octets[1],
                octets[2], octets[3], octets[4], octets[5]);
  return buf;
}

MacAddress MacAddress::for_host(std::uint32_t index) {
  // 0x02 prefix: locally administered, unicast.
  MacAddress m;
  m.octets = {0x02, 0x00, static_cast<std::uint8_t>(index >> 24),
              static_cast<std::uint8_t>(index >> 16), static_cast<std::uint8_t>(index >> 8),
              static_cast<std::uint8_t>(index)};
  return m;
}

std::string Ipv4::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (value >> 24) & 0xff, (value >> 16) & 0xff,
                (value >> 8) & 0xff, value & 0xff);
  return buf;
}

Ipv4 Ipv4::for_vm(std::uint32_t index) {
  return Ipv4{(10u << 24) | (index + 2)};  // 10.0.0.2 upward
}

const char* to_string(PacketKind k) {
  switch (k) {
    case PacketKind::Request: return "request";
    case PacketKind::Response: return "response";
    case PacketKind::WakeOnLan: return "wol";
  }
  return "?";
}

}  // namespace drowsy::net
