// Network addresses: 48-bit MACs for hosts, IPv4 for VMs.
//
// Both are functions of an index (MacAddress::for_host, Ipv4::for_vm),
// which the switch and the waking module decode to keep their tables,
// such as the VM-IP → drowsy-host map (paper §V), in vectors.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>

namespace drowsy::net {

/// 48-bit Ethernet MAC address.
struct MacAddress {
  std::array<std::uint8_t, 6> octets{};

  auto operator<=>(const MacAddress&) const = default;

  /// "aa:bb:cc:dd:ee:ff" rendering.
  [[nodiscard]] std::string to_string() const;

  /// Deterministic MAC for host index i: 02:00 (locally administered,
  /// unicast), then the index big-endian.
  [[nodiscard]] static constexpr MacAddress for_host(std::uint32_t index) {
    return MacAddress{{0x02, 0x00, static_cast<std::uint8_t>(index >> 24),
                       static_cast<std::uint8_t>(index >> 16),
                       static_cast<std::uint8_t>(index >> 8),
                       static_cast<std::uint8_t>(index)}};
  }

  /// Inverse of for_host; nullopt without its 02:00 prefix.
  [[nodiscard]] constexpr std::optional<std::uint32_t> host_index() const {
    if (octets[0] != 0x02 || octets[1] != 0x00) return std::nullopt;
    return (std::uint32_t{octets[2]} << 24) | (std::uint32_t{octets[3]} << 16) |
           (std::uint32_t{octets[4]} << 8) | octets[5];
  }
};

/// IPv4 address as a host-order 32-bit value.
struct Ipv4 {
  std::uint32_t value = 0;

  auto operator<=>(const Ipv4&) const = default;

  [[nodiscard]] std::string to_string() const;

  /// Largest number of VM addresses: 10.0.0.2 up to 10.255.255.255.
  static constexpr std::uint32_t kMaxVms = (1u << 24) - 2;

  /// Deterministic address in 10.0.0.0/8 for VM index i: 10.0.0.2 upward.
  [[nodiscard]] static constexpr Ipv4 for_vm(std::uint32_t index) {
    return Ipv4{(10u << 24) | (index + 2)};
  }

  /// Inverse of for_vm.  An address that is no VM's wraps to an index at
  /// or past kMaxVms, so one bounds check rejects it.
  [[nodiscard]] constexpr std::uint32_t vm_index() const {
    return value - for_vm(0).value;
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
  MacAddress dst_mac{};      ///< destination host's port: every frame is L2-addressed
  std::uint64_t id = 0;      ///< monotonically assigned by the sender
  /// Simulated injection instant (ms), stamped by the switch on first
  /// inject; < 0 means unsent.  Receivers measure client-perceived
  /// latency from here, so switch queueing counts against the SLA.
  std::int64_t sent_at = -1;
};

}  // namespace drowsy::net
