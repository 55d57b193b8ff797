#include "net/addr.hpp"

#include <gtest/gtest.h>

#include <set>

namespace n = drowsy::net;

TEST(Addr, MacFormatting) {
  n::MacAddress m;
  m.octets = {0x02, 0x00, 0x00, 0x00, 0x01, 0xff};
  EXPECT_EQ(m.to_string(), "02:00:00:00:01:ff");
}

TEST(Addr, MacForHostDeterministicAndUnique) {
  std::set<n::MacAddress> seen;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const auto mac = n::MacAddress::for_host(i);
    EXPECT_EQ(mac, n::MacAddress::for_host(i));
    EXPECT_TRUE(seen.insert(mac).second) << "duplicate MAC for host " << i;
    // Locally administered unicast prefix.
    EXPECT_EQ(mac.octets[0], 0x02);
  }
}

TEST(Addr, Ipv4Formatting) {
  EXPECT_EQ(n::Ipv4{(10u << 24) | 2}.to_string(), "10.0.0.2");
  EXPECT_EQ(n::Ipv4{0xC0A80101}.to_string(), "192.168.1.1");
}

TEST(Addr, Ipv4ForVmUnique) {
  std::set<n::Ipv4> seen;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(seen.insert(n::Ipv4::for_vm(i)).second);
  }
}

TEST(Addr, ComparisonOperators) {
  EXPECT_EQ(n::MacAddress::for_host(3), n::MacAddress::for_host(3));
  EXPECT_NE(n::MacAddress::for_host(3), n::MacAddress::for_host(4));
  EXPECT_LT(n::Ipv4{1}, n::Ipv4{2});
}

TEST(Addr, HostIndexInvertsForHost) {
  for (const std::uint32_t i : {0u, 1u, 255u, 256u, 70'000u, 0xFFFFFFFFu}) {
    EXPECT_EQ(n::MacAddress::for_host(i).host_index(), i);
  }
  n::MacAddress foreign = n::MacAddress::for_host(5);
  foreign.octets[0] = 0x00;  // not the locally administered prefix
  EXPECT_EQ(foreign.host_index(), std::nullopt);
  foreign = n::MacAddress::for_host(5);
  foreign.octets[1] = 0x01;
  EXPECT_EQ(foreign.host_index(), std::nullopt);
}

TEST(Addr, VmIndexInvertsForVm) {
  for (const std::uint32_t i : {0u, 1u, 253u, 254u, 70'000u, n::Ipv4::kMaxVms - 1}) {
    EXPECT_EQ(n::Ipv4::for_vm(i).vm_index(), i);
  }
  // Addresses no VM has decode at or past kMaxVms.
  for (const std::uint32_t value : {0u, (10u << 24), (10u << 24) | 1u, 11u << 24, 0xC0A80101u}) {
    EXPECT_GE(n::Ipv4{value}.vm_index(), n::Ipv4::kMaxVms) << n::Ipv4{value}.to_string();
  }
}
