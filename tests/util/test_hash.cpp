#include "util/hash.hpp"

#include <gtest/gtest.h>

#include <string_view>

namespace u = drowsy::util;

TEST(Fnv1a64, KnownVectors) {
  // Published FNV-1a test vectors; the empty input hashes to the offset
  // basis.
  EXPECT_EQ(u::fnv1a64(""), 0xCBF29CE484222325ull);
  EXPECT_EQ(u::fnv1a64("a"), 0xAF63DC4C8601EC8Cull);
  EXPECT_EQ(u::fnv1a64("foobar"), 0x85944171F73967E8ull);
}

TEST(Fnv1a64, DistinguishesBytes) {
  EXPECT_NE(u::fnv1a64("abc"), u::fnv1a64("abd"));
  EXPECT_NE(u::fnv1a64(""), u::fnv1a64(std::string_view("\0", 1)));
}
