#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/idleness_model.hpp"
#include "trace/generators.hpp"

namespace c = drowsy::core;
namespace u = drowsy::util;
namespace t = drowsy::trace;

namespace {

u::CalendarTime cal(std::int64_t hour) { return u::calendar_of(hour * u::kMsPerHour); }

c::IdlenessModel trained(std::size_t hours) {
  t::GenOptions o;
  o.years = 1;
  const auto tr = t::comic_strips(o);
  c::IdlenessModel model;
  for (std::size_t h = 0; h < hours; ++h) {
    model.observe_hour(cal(static_cast<std::int64_t>(h)), tr.at_hour(h));
  }
  return model;
}

}  // namespace

TEST(ModelSerialization, RoundTripPreservesPredictions) {
  const auto model = trained(60 * 24);
  std::stringstream ss;
  model.save(ss);
  const auto restored = c::IdlenessModel::load(ss);

  for (std::int64_t h = 60 * 24; h < 62 * 24; ++h) {
    EXPECT_DOUBLE_EQ(restored.ip(cal(h)).raw, model.ip(cal(h)).raw) << "hour " << h;
  }
  EXPECT_EQ(restored.observed_hours(), model.observed_hours());
  EXPECT_DOUBLE_EQ(restored.mean_active_level(), model.mean_active_level());
  for (std::size_t i = 0; i < c::kScaleCount; ++i) {
    EXPECT_DOUBLE_EQ(restored.weights()[i], model.weights()[i]);
  }
}

TEST(ModelSerialization, RestoredModelKeepsLearning) {
  auto model = trained(30 * 24);
  std::stringstream ss;
  model.save(ss);
  auto restored = c::IdlenessModel::load(ss);

  // Continue both with the same observations: they must stay identical.
  t::GenOptions o;
  o.years = 1;
  const auto tr = t::comic_strips(o);
  for (std::int64_t h = 30 * 24; h < 40 * 24; ++h) {
    model.observe_hour(cal(h), tr.at_hour(static_cast<std::size_t>(h)));
    restored.observe_hour(cal(h), tr.at_hour(static_cast<std::size_t>(h)));
  }
  EXPECT_DOUBLE_EQ(restored.ip(cal(41 * 24)).raw, model.ip(cal(41 * 24)).raw);
}

TEST(ModelSerialization, FreshModelRoundTrips) {
  const c::IdlenessModel model;
  std::stringstream ss;
  model.save(ss);
  const auto restored = c::IdlenessModel::load(ss);
  EXPECT_EQ(restored.observed_hours(), 0u);
  EXPECT_DOUBLE_EQ(restored.ip(cal(0)).raw, 0.0);
}

TEST(ModelSerialization, BadMagicThrows) {
  std::stringstream ss("not-a-model 1\n");
  EXPECT_THROW((void)c::IdlenessModel::load(ss), std::runtime_error);
}

TEST(ModelSerialization, WrongVersionThrows) {
  std::stringstream ss("drowsy-im 999\n");
  EXPECT_THROW((void)c::IdlenessModel::load(ss), std::runtime_error);
}

TEST(ModelSerialization, TruncatedStreamThrows) {
  const auto model = trained(24);
  std::stringstream ss;
  model.save(ss);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW((void)c::IdlenessModel::load(cut), std::runtime_error);
}

TEST(ModelSerialization, EmptyStreamThrows) {
  std::stringstream ss;
  EXPECT_THROW((void)c::IdlenessModel::load(ss), std::runtime_error);
}

namespace {

/// A saved, trained model split into its lines: magic, header, weights,
/// then a size line and a score line per block.
std::vector<std::string> saved_lines() {
  std::stringstream ss;
  trained(24 * 7).save(ss);
  std::vector<std::string> lines;
  for (std::string line; std::getline(ss, line);) lines.push_back(line);
  return lines;
}

void expect_load_throws(const std::vector<std::string>& lines) {
  std::string text;
  for (const auto& line : lines) text += line + '\n';
  std::stringstream ss(text);
  EXPECT_THROW((void)c::IdlenessModel::load(ss), std::runtime_error) << text.substr(0, 200);
}

constexpr std::size_t kHeader = 1;
constexpr std::size_t kWeights = 2;
constexpr std::size_t kDaySize = 3;
constexpr std::size_t kDayScores = 4;

}  // namespace

TEST(ModelSerialization, SavedLinesRoundTrip) {
  // The corruption tests below edit these lines; unedited they load.
  std::string text;
  for (const auto& line : saved_lines()) text += line + '\n';
  std::stringstream ss(text);
  EXPECT_NO_THROW((void)c::IdlenessModel::load(ss));
}

TEST(ModelSerialization, ScoreOutsideUnitIntervalThrows) {
  for (const char* score : {"9", "-1.0000001", "nan", "inf"}) {
    auto lines = saved_lines();
    lines[kDayScores] = std::string(score) + lines[kDayScores].substr(lines[kDayScores].find(' '));
    expect_load_throws(lines);
  }
}

TEST(ModelSerialization, BadWeightsThrow) {
  for (const char* weights : {"-7 4 2 2", "0.5 0.5 0.5 -0.5", "nan 0.25 0.25 0.25",
                              "inf 0 0 0", "0.25 0.25 0.25 0.2", "0.3 0.3 0.3 0.3"}) {
    auto lines = saved_lines();
    lines[kWeights] = weights;
    expect_load_throws(lines);
  }
}

TEST(ModelSerialization, NegativeCountsThrow) {
  auto lines = saved_lines();
  lines[kHeader] = "-3 -4 0";
  expect_load_throws(lines);
  lines = saved_lines();
  lines[kHeader] = "0 0 -1";
  expect_load_throws(lines);
  lines = saved_lines();
  lines[kDaySize] = "-24";
  expect_load_throws(lines);
}

TEST(ModelSerialization, MoreActiveThanObservedHoursThrows) {
  auto lines = saved_lines();
  lines[kHeader] = "1 5 4";
  expect_load_throws(lines);
}

TEST(ModelSerialization, ActiveLevelSumOutOfRangeThrows) {
  for (const char* header : {"-0.5 2 4", "2.5 2 4", "nan 2 4"}) {
    auto lines = saved_lines();
    lines[kHeader] = header;
    expect_load_throws(lines);
  }
}
