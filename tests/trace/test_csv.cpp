#include "trace/csv.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace t = drowsy::trace;

TEST(TraceCsv, RoundTrip) {
  std::vector<t::ActivityTrace> traces;
  traces.emplace_back(std::vector<double>{0.1, 0.2, 0.3}, "a");
  traces.emplace_back(std::vector<double>{0.9, 0.8}, "b");
  std::stringstream ss;
  t::write_csv(ss, traces);
  const auto loaded = t::read_csv(ss);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].name(), "a");
  EXPECT_EQ(loaded[1].name(), "b");
  EXPECT_EQ(loaded[0].hours(), traces[0].hours());
  EXPECT_EQ(loaded[1].hours(), traces[1].hours());
}

TEST(TraceCsv, UnevenColumnsPadWithEmptyCells) {
  std::vector<t::ActivityTrace> traces;
  traces.emplace_back(std::vector<double>{0.1}, "short");
  traces.emplace_back(std::vector<double>{0.5, 0.6, 0.7}, "long");
  std::stringstream ss;
  t::write_csv(ss, traces);
  const auto loaded = t::read_csv(ss);
  EXPECT_EQ(loaded[0].size(), 1u);
  EXPECT_EQ(loaded[1].size(), 3u);
}

TEST(TraceCsv, EmptyInputThrows) {
  std::stringstream ss;
  EXPECT_THROW((void)t::read_csv(ss), std::runtime_error);
}

TEST(TraceCsv, BadNumberThrows) {
  std::stringstream ss("a,b\n0.1,zzz\n");
  EXPECT_THROW((void)t::read_csv(ss), std::runtime_error);
}

TEST(TraceCsv, MalformedLevelThrowsNamingRowAndColumn) {
  for (const char* cell : {"0.5x", "nan", "inf", "-inf", "-0.2", "1.5", "1e999", " 0.5",
                           "+0.5", "0.5 ", "0x1p-1", "."}) {
    SCOPED_TRACE(cell);
    std::stringstream ss(std::string("a,b\n0.1,0.2\n0.3,") + cell + "\n");
    try {
      (void)t::read_csv(ss);
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("row 3"), std::string::npos) << what;
      EXPECT_NE(what.find("column 2"), std::string::npos) << what;
    }
  }
}

TEST(TraceCsv, AcceptsEveryLevelWriteCsvProduces) {
  std::stringstream ss("a,b,c\n0,1,1e-05\n0.5,0.999999,2.5e-300\n");
  const auto loaded = t::read_csv(ss);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[0].hours(), (std::vector<double>{0.0, 0.5}));
  EXPECT_EQ(loaded[1].hours(), (std::vector<double>{1.0, 0.999999}));
  EXPECT_EQ(loaded[2].hours(), (std::vector<double>{1e-05, 2.5e-300}));
}

TEST(TraceCsv, ExtraColumnThrows) {
  std::stringstream ss("a\n0.1,0.2\n");
  EXPECT_THROW((void)t::read_csv(ss), std::runtime_error);
}

TEST(TraceCsv, ToleratesCrlfLineEndings) {
  std::stringstream ss("a,b\r\n0.1,0.9\r\n0.2,0.8\r\n");
  const auto loaded = t::read_csv(ss);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].name(), "a");
  EXPECT_EQ(loaded[1].name(), "b") << "no stray \\r on the last header cell";
  ASSERT_EQ(loaded[1].size(), 2u);
  EXPECT_DOUBLE_EQ(loaded[1].hours()[1], 0.8) << "no stray \\r on the last data cell";
}

TEST(TraceCsv, ToleratesUtf8Bom) {
  std::stringstream ss("\xEF\xBB\xBF" "a,b\n0.1,0.9\n");
  const auto loaded = t::read_csv(ss);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].name(), "a") << "BOM must not glue onto the first column name";
}

TEST(TraceCsv, ToleratesTrailingBlankLines) {
  std::stringstream ss("a\n0.1\n0.2\n\n\r\n\n");
  const auto loaded = t::read_csv(ss);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].size(), 2u);
}

TEST(TraceCsv, ExportedFileWithAllThreeArtifactsRoundTrips) {
  // A Windows-exported file: BOM + CRLF + trailing blanks, all at once.
  std::stringstream ss("\xEF\xBB\xBF" "x,y\r\n0.25,0.75\r\n0.5,\r\n\r\n");
  const auto loaded = t::read_csv(ss);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].size(), 2u);
  EXPECT_EQ(loaded[1].size(), 1u) << "empty trailing cell still pads, not parses";
  EXPECT_DOUBLE_EQ(loaded[0].hours()[1], 0.5);
}

TEST(TraceCsv, FileRoundTrip) {
  std::vector<t::ActivityTrace> traces;
  traces.emplace_back(std::vector<double>{0.25, 0.75}, "file-test");
  const std::string path = ::testing::TempDir() + "/drowsy_trace_test.csv";
  t::save_csv(path, traces);
  const auto loaded = t::load_csv(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].hours(), traces[0].hours());
}

TEST(TraceCsv, MissingFileThrows) {
  EXPECT_THROW((void)t::load_csv("/nonexistent/nope.csv"), std::runtime_error);
}

TEST(TraceCsv, WriteAndSaveRefuseWhatReadRefusesBeforeAnyByte) {
#ifndef NDEBUG
  GTEST_SKIP() << "ActivityTrace asserts its levels are in [0, 1] when assertions are on";
#else
  for (const double level : {std::nan(""), -std::nan(""), HUGE_VAL, 1.5, -0.25}) {
    SCOPED_TRACE(level);
    std::vector<t::ActivityTrace> traces;
    traces.emplace_back(std::vector<double>{0.1, 0.2}, "ok");
    traces.emplace_back(std::vector<double>{0.3, 0.4, level}, "bad");
    std::stringstream ss;
    try {
      t::write_csv(ss, traces);
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("column 2 ('bad') hour 2"), std::string::npos) << what;
    }
    EXPECT_EQ(ss.str(), "");
    const std::string path = ::testing::TempDir() + "/drowsy_refused_level.csv";
    std::filesystem::remove(path);
    EXPECT_THROW(t::save_csv(path, traces), std::runtime_error);
    EXPECT_FALSE(std::filesystem::exists(path));
  }
#endif
}
