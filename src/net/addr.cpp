#include "net/addr.hpp"

#include <cstdio>

namespace drowsy::net {

std::string MacAddress::to_string() const {
  char buf[18];
  std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x", octets[0], octets[1],
                octets[2], octets[3], octets[4], octets[5]);
  return buf;
}

std::string Ipv4::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (value >> 24) & 0xff, (value >> 16) & 0xff,
                (value >> 8) & 0xff, value & 0xff);
  return buf;
}

}  // namespace drowsy::net
