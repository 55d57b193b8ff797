#include "net/addr.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

namespace n = drowsy::net;

TEST(Addr, MacFormatting) {
  n::MacAddress m;
  m.octets = {0x02, 0x00, 0x00, 0x00, 0x01, 0xff};
  EXPECT_EQ(m.to_string(), "02:00:00:00:01:ff");
}

TEST(Addr, MacForHostDeterministicAndUnique) {
  std::unordered_set<n::MacAddress> seen;
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
  std::unordered_set<n::Ipv4> seen;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(seen.insert(n::Ipv4::for_vm(i)).second);
  }
}

TEST(Addr, ComparisonOperators) {
  EXPECT_EQ(n::MacAddress::for_host(3), n::MacAddress::for_host(3));
  EXPECT_NE(n::MacAddress::for_host(3), n::MacAddress::for_host(4));
  EXPECT_LT(n::Ipv4{1}, n::Ipv4{2});
}
