#include "replay/dataset.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace rp = drowsy::replay;
namespace tr = drowsy::trace;

TEST(DatasetFormat, NamesRoundTrip) {
  EXPECT_EQ(rp::dataset_format_from_string("azure"), rp::DatasetFormat::AzureVm);
  EXPECT_EQ(rp::dataset_format_from_string("google"), rp::DatasetFormat::GoogleTask);
  EXPECT_STREQ(rp::to_string(rp::DatasetFormat::AzureVm), "azure");
  EXPECT_STREQ(rp::to_string(rp::DatasetFormat::GoogleTask), "google");
  EXPECT_THROW(static_cast<void>(rp::dataset_format_from_string("borg")),
               std::invalid_argument);
}

TEST(FoldAzure, AveragesReadingsWithinAnHour) {
  std::stringstream in(
      "timestamp,vm_id,core_count,avg_cpu\n"
      "0,vm-a,2,40\n"
      "1800,vm-a,2,60\n"
      "3600,vm-a,2,10\n");
  const auto traces = rp::fold_azure(in);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].name(), "vm-a");
  ASSERT_EQ(traces[0].size(), 2u);
  EXPECT_DOUBLE_EQ(traces[0].hours()[0], 0.5);  // mean of 40% and 60%
  EXPECT_DOUBLE_EQ(traces[0].hours()[1], 0.1);
}

TEST(FoldAzure, GapsInsideLifetimeBecomeIdleHours) {
  // Readings at hour 0 and hour 3; hours 1-2 have no readings at all.
  std::stringstream in(
      "timestamp,vm_id,core_count,avg_cpu\n"
      "0,vm-a,2,80\n"
      "10800,vm-a,2,80\n");
  const auto traces = rp::fold_azure(in);
  ASSERT_EQ(traces[0].size(), 4u);
  EXPECT_DOUBLE_EQ(traces[0].hours()[0], 0.8);
  EXPECT_DOUBLE_EQ(traces[0].hours()[1], 0.0);
  EXPECT_DOUBLE_EQ(traces[0].hours()[2], 0.0);
  EXPECT_DOUBLE_EQ(traces[0].hours()[3], 0.8);
}

TEST(FoldAzure, OutOfRangeValuesClampInto01) {
  std::stringstream in(
      "timestamp,vm_id,core_count,avg_cpu\n"
      "0,vm-a,2,150\n"
      "3600,vm-a,2,-5\n");
  const auto traces = rp::fold_azure(in);
  EXPECT_DOUBLE_EQ(traces[0].hours()[0], 1.0);
  EXPECT_DOUBLE_EQ(traces[0].hours()[1], 0.0);
}

TEST(FoldAzure, ColumnOrderFollowsFirstAppearance) {
  std::stringstream in(
      "timestamp,vm_id,core_count,avg_cpu\n"
      "0,vm-b,2,50\n"
      "0,vm-a,2,50\n"
      "3600,vm-b,2,50\n");
  const auto traces = rp::fold_azure(in);
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].name(), "vm-b");
  EXPECT_EQ(traces[1].name(), "vm-a");
}

TEST(FoldAzure, RowsMayArriveOutOfOrder) {
  std::stringstream sorted(
      "timestamp,vm_id,core_count,avg_cpu\n"
      "0,vm-a,2,20\n"
      "3600,vm-a,2,40\n");
  std::stringstream shuffled(
      "timestamp,vm_id,core_count,avg_cpu\n"
      "3600,vm-a,2,40\n"
      "0,vm-a,2,20\n");
  EXPECT_EQ(rp::fold_azure(sorted)[0].hours(), rp::fold_azure(shuffled)[0].hours());
}

TEST(FoldAzure, ToleratesCrlfBomAndBlankLines) {
  std::stringstream in(
      "\xEF\xBB\xBF"
      "timestamp,vm_id,core_count,avg_cpu\r\n"
      "0,vm-a,2,50\r\n"
      "\r\n"
      "\n");
  const auto traces = rp::fold_azure(in);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_DOUBLE_EQ(traces[0].hours()[0], 0.5);
}

TEST(FoldAzure, MalformedRowsReportTheLineNumber) {
  std::stringstream bad_number(
      "timestamp,vm_id,core_count,avg_cpu\n"
      "0,vm-a,2,50\n"
      "3600,vm-a,2,banana\n");
  try {
    static_cast<void>(rp::fold_azure(bad_number));
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("row 3"), std::string::npos) << e.what();
  }
  std::stringstream bad_header("time,vm\n");
  EXPECT_THROW(static_cast<void>(rp::fold_azure(bad_header)), std::runtime_error);
  std::stringstream empty("");
  EXPECT_THROW(static_cast<void>(rp::fold_azure(empty)), std::runtime_error);
}

TEST(FoldGoogle, WeightsRatesByHourOverlap) {
  // One task: 0.8 for the first half hour of hour 0, then nothing.
  // Uncovered time counts as idle, so hour 0 folds to 0.8 * 1800/3600.
  std::stringstream in(
      "start_time,end_time,job_id,task_index,cpu_rate\n"
      "0,1800,10,0,0.8\n");
  const auto traces = rp::fold_google(in);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].name(), "j10-t0");
  ASSERT_EQ(traces[0].size(), 1u);
  EXPECT_DOUBLE_EQ(traces[0].hours()[0], 0.4);
}

TEST(FoldGoogle, SegmentsSpanningHoursSplitCorrectly) {
  // 1.0 from 00:30 to 01:30: half of hour 0 and half of hour 1.
  std::stringstream in(
      "start_time,end_time,job_id,task_index,cpu_rate\n"
      "1800,5400,7,3,1.0\n");
  const auto traces = rp::fold_google(in);
  EXPECT_EQ(traces[0].name(), "j7-t3");
  ASSERT_EQ(traces[0].size(), 2u);
  EXPECT_DOUBLE_EQ(traces[0].hours()[0], 0.5);
  EXPECT_DOUBLE_EQ(traces[0].hours()[1], 0.5);
}

TEST(FoldGoogle, RejectsInvertedIntervals) {
  std::stringstream in(
      "start_time,end_time,job_id,task_index,cpu_rate\n"
      "3600,3600,1,0,0.5\n");
  EXPECT_THROW(static_cast<void>(rp::fold_google(in)), std::runtime_error);
}

TEST(Summaries, ClassifyAndCountThePopulation) {
  std::vector<tr::ActivityTrace> traces;
  // Long-lived, mostly idle -> LLMI; long-lived busy -> LLMU;
  // short-lived -> SLMU (classify's lifetime cut is 168h).
  traces.emplace_back(std::vector<double>(400, 0.001), "idle");
  traces.emplace_back(std::vector<double>(400, 0.9), "busy");
  traces.emplace_back(std::vector<double>(48, 0.9), "short");
  const auto columns = rp::summarize_columns(traces);
  ASSERT_EQ(columns.size(), 3u);
  EXPECT_EQ(columns[0].vm_class, tr::VmClass::Llmi);
  EXPECT_EQ(columns[1].vm_class, tr::VmClass::Llmu);
  EXPECT_EQ(columns[2].vm_class, tr::VmClass::Slmu);
  EXPECT_EQ(columns[1].hours, 400u);
  EXPECT_NEAR(columns[1].mean_activity, 0.9, 1e-12);  // summation order varies with -O3
  const rp::ClassCounts counts = rp::count_classes(columns);
  EXPECT_EQ(counts.slmu, 1u);
  EXPECT_EQ(counts.llmu, 1u);
  EXPECT_EQ(counts.llmi, 1u);
}

TEST(Samples, AreDeterministicPerSeedAndDifferAcrossSeeds) {
  rp::SampleOptions opts;
  opts.vms = 3;
  opts.days = 2;
  std::ostringstream a, b, c;
  rp::write_azure_sample(a, opts);
  rp::write_azure_sample(b, opts);
  opts.seed = 99;
  rp::write_azure_sample(c, opts);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str(), c.str());

  opts.seed = 7;
  std::ostringstream g1, g2;
  rp::write_google_sample(g1, opts);
  rp::write_google_sample(g2, opts);
  EXPECT_EQ(g1.str(), g2.str());
}

TEST(Samples, ConvertedAzureSliceCoversAllThreeClasses) {
  // The fixture recipe: profiles cycle LLMU/LLMI/SLMU, so any vms >= 3
  // sample folds into a population with every class present.
  rp::SampleOptions opts;
  opts.vms = 6;
  opts.days = 14;
  std::ostringstream raw;
  rp::write_azure_sample(raw, opts);
  std::istringstream in(raw.str());
  const auto columns = rp::summarize_columns(rp::fold_azure(in));
  const rp::ClassCounts counts = rp::count_classes(columns);
  EXPECT_EQ(counts.llmu, 2u);
  EXPECT_EQ(counts.llmi, 2u);
  EXPECT_EQ(counts.slmu, 2u);
}

TEST(Samples, ConvertedGoogleSliceCoversAllThreeClasses) {
  rp::SampleOptions opts;
  opts.vms = 5;
  opts.days = 10;
  opts.seed = 11;
  std::ostringstream raw;
  rp::write_google_sample(raw, opts);
  std::istringstream in(raw.str());
  const auto columns = rp::summarize_columns(rp::fold_google(in));
  const rp::ClassCounts counts = rp::count_classes(columns);
  EXPECT_GE(counts.llmu, 1u);
  EXPECT_GE(counts.llmi, 1u);
  EXPECT_GE(counts.slmu, 1u);
}

TEST(FoldAzure, RejectsNonFiniteReadings) {
  // std::stod reads "nan" and "inf"; either would reach a trace level.
  for (const char* reading : {"nan", "inf", "-inf", "NAN"}) {
    std::stringstream in(std::string("timestamp,vm_id,core_count,avg_cpu\n"
                                     "0,vm1,2,50\n"
                                     "0,vm1,2,") +
                         reading + "\n");
    try {
      static_cast<void>(rp::fold_azure(in));
      ADD_FAILURE() << reading << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("row 3"), std::string::npos) << e.what();
    }
  }
}

TEST(FoldGoogle, RejectsNonFiniteRates) {
  for (const char* rate : {"nan", "inf", "-inf"}) {
    std::stringstream in(std::string("start_time,end_time,job_id,task_index,cpu_rate\n"
                                     "0,1800,10,0,") +
                         rate + "\n");
    EXPECT_THROW(static_cast<void>(rp::fold_google(in)), std::runtime_error) << rate;
  }
}

TEST(FoldAzure, RejectsTimesPastTenYears) {
  // A VM seen at 0 s and at 10^15 s would live ~2.8 * 10^11 hours.
  std::stringstream in(
      "timestamp,vm_id,core_count,avg_cpu\n"
      "0,vm1,2,50\n"
      "1000000000000000,vm1,2,50\n");
  try {
    static_cast<void>(rp::fold_azure(in));
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("row 3"), std::string::npos) << e.what();
  }
  // The last second of the tenth year is still a time.
  std::stringstream edge(
      "timestamp,vm_id,core_count,avg_cpu\n"
      "315360000,vm1,2,50\n");
  EXPECT_EQ(rp::fold_azure(edge).at(0).size(), 1u);
}

TEST(FoldGoogle, RejectsSegmentsPastTenYears) {
  // One segment ending at 10^15 s would be folded one hour at a time.
  std::stringstream in(
      "start_time,end_time,job_id,task_index,cpu_rate\n"
      "0,1000000000000000,1,0,0.5\n");
  EXPECT_THROW(static_cast<void>(rp::fold_google(in)), std::runtime_error);
}

TEST(FoldGoogle, HugeRatesOfBothSignsStayInRange) {
  // Finite rates whose weighted sums overflow to +inf and -inf in one
  // hour must not fold to inf - inf.
  std::stringstream in(
      "start_time,end_time,job_id,task_index,cpu_rate\n"
      "0,1800,1,0,1e308\n"
      "0,1800,1,0,-1e308\n");
  const auto traces = rp::fold_google(in);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_DOUBLE_EQ(traces[0].hours()[0], 0.5);  // 1.0 and 0.0, each for half an hour
}
