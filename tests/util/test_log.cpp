#include "util/log.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace u = drowsy::util;

namespace {

/// Captures every line that passes the level gate; restores the level and
/// the default sink afterwards.
struct Captured : ::testing::Test {
  u::LogLevel saved = u::log_level();
  std::vector<std::string> lines;

  Captured() {
    u::set_log_sink([this](u::LogLevel, const char*, const std::string& message) {
      lines.push_back(message);
    });
  }
  ~Captured() override {
    u::set_log_sink({});
    u::set_log_level(saved);
  }
};

}  // namespace

TEST_F(Captured, DisabledLineEvaluatesNoArgument) {
  int evaluated = 0;
  const auto argument = [&evaluated] { return ++evaluated; };

  u::set_log_level(u::LogLevel::Info);
  DROWSY_LOG_DEBUG("test", "value %d", argument());
  EXPECT_EQ(evaluated, 0) << "a line below the level must not build its arguments";
  EXPECT_TRUE(lines.empty());

  u::set_log_level(u::LogLevel::Debug);
  DROWSY_LOG_DEBUG("test", "value %d", argument());
  EXPECT_EQ(evaluated, 1);
  EXPECT_EQ(lines, (std::vector<std::string>{"value 1"}));
}

TEST_F(Captured, LineIsOneStatementUnderAnUnbracedIf) {
  u::set_log_level(u::LogLevel::Warn);
  int taken = 0;
  for (const bool fail : {true, false}) {
    if (fail)
      DROWSY_LOG_ERROR("test", "failed");
    else
      ++taken;
  }
  EXPECT_EQ(taken, 1);
  EXPECT_EQ(lines, (std::vector<std::string>{"failed"}));
}
