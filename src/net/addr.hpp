// Network addresses: 48-bit MACs for hosts, IPv4 for VMs.
//
// The waking module keys its two hashmaps on these types: VM-IP → host-MAC
// for inbound-request wake-ups, and waking-date → host-MAC for scheduled
// wake-ups (paper §V).
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace drowsy::net {

/// 48-bit Ethernet MAC address.
struct MacAddress {
  std::array<std::uint8_t, 6> octets{};

  auto operator<=>(const MacAddress&) const = default;

  /// "aa:bb:cc:dd:ee:ff" rendering.
  [[nodiscard]] std::string to_string() const;

  /// Deterministic MAC for host index i (locally administered prefix).
  [[nodiscard]] static MacAddress for_host(std::uint32_t index);
};

/// IPv4 address as a host-order 32-bit value.
struct Ipv4 {
  std::uint32_t value = 0;

  auto operator<=>(const Ipv4&) const = default;

  [[nodiscard]] std::string to_string() const;

  /// Deterministic address in 10.0.0.0/8 for VM index i: 10.0.0.2 upward.
  [[nodiscard]] static constexpr Ipv4 for_vm(std::uint32_t index) {
    return Ipv4{(10u << 24) | (index + 2)};
  }
};

/// The kinds of frames the simulated fabric carries.
enum class PacketKind {
  Request,    ///< client request destined to a VM
  WakeOnLan,  ///< magic packet, wakes the destination host
};

/// One simulated frame.
struct Packet {
  PacketKind kind = PacketKind::Request;
  Ipv4 dst{};
  MacAddress dst_mac{};      ///< used by WoL frames (L2-addressed)
  std::uint64_t id = 0;      ///< monotonically assigned by the sender
  /// Simulated injection instant (ms), stamped by the switch on first
  /// inject; < 0 means unsent.  Receivers measure client-perceived
  /// latency from here, so switch queueing counts against the SLA.
  std::int64_t sent_at = -1;
};

}  // namespace drowsy::net

template <>
struct std::hash<drowsy::net::MacAddress> {
  std::size_t operator()(const drowsy::net::MacAddress& m) const noexcept {
    std::uint64_t v = 0;
    for (auto o : m.octets) v = (v << 8) | o;
    return std::hash<std::uint64_t>{}(v);
  }
};

template <>
struct std::hash<drowsy::net::Ipv4> {
  std::size_t operator()(const drowsy::net::Ipv4& ip) const noexcept {
    return std::hash<std::uint32_t>{}(ip.value);
  }
};
