// Contract of the study registry: every built-in study expands to a
// valid grid, runs through the BatchRunner on a shrunk parameter set,
// and reduces to a figure CSV whose header matches the study's declared
// schema.  Plus the per-figure invariants the paper anchors: vm3 == vm4
// in fig1, grace-on suspends below grace-off in fig3, table1's per-host
// columns, fig5's gain columns and opportunistic-step ablation, and the
// testbed's energy ordering and quick-resume latency.
#include "study/study.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/registry.hpp"

namespace sc = drowsy::scenario;
namespace st = drowsy::study;

namespace {

/// Shrunk parameters per study so the whole file stays test-fast.
st::StudyParams small_params(const st::Study& study) {
  st::StudyParams params = study.params;
  // The testbed relocates for the first time after day 1; before that
  // drowsy-dc and neat+s3 are the same run.
  params.set("days", study.name == "energy-sla-testbed" ? 2 : 1);
  if (study.name == "fig4-im-efficiency") params.set("years", 1);
  return params;
}

std::vector<std::string> lines_of(const std::string& csv) {
  std::vector<std::string> lines;
  std::istringstream in(csv);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::vector<std::string> cells_of(const std::string& line) {
  std::vector<std::string> cells;
  std::istringstream in(line);
  std::string cell;
  while (std::getline(in, cell, ',')) cells.push_back(cell);
  return cells;
}

/// The built-in study `name`; throws, failing the test, when there is none.
const st::Study& builtin_study(const std::string& name) {
  const st::Study* study = st::StudyRegistry::builtin().find(name);
  if (study == nullptr) throw std::invalid_argument("no built-in study " + name);
  return *study;
}

/// Run a study once per (study, shrunk-params) and memoize — several
/// tests inspect the same figure.
const st::StudyOutcome& outcome_of(const std::string& name) {
  static std::map<std::string, st::StudyOutcome> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    const st::Study& study = builtin_study(name);
    it = cache.emplace(name, st::run_study(study, small_params(study), 2)).first;
  }
  return it->second;
}

TEST(StudyRegistry, BuiltinCatalogueIsSane) {
  const auto& registry = st::StudyRegistry::builtin();
  ASSERT_GE(registry.all().size(), 4u);
  for (const st::Study& study : registry.all()) {
    SCOPED_TRACE(study.name);
    EXPECT_FALSE(study.figure.empty());
    EXPECT_FALSE(study.description.empty());
    EXPECT_FALSE(study.csv_header.empty());
    EXPECT_EQ(registry.find(study.name), &study);
    // The grid must expand and validate under the defaults.
    const auto jobs = st::jobs_for(study, study.params);
    EXPECT_FALSE(jobs.empty());
  }
  EXPECT_EQ(registry.find("no-such-study"), nullptr);
}

TEST(StudyRegistry, EveryStudyRoundTripsOnASmallGrid) {
  for (const st::Study& study : st::StudyRegistry::builtin().all()) {
    SCOPED_TRACE(study.name);
    const st::StudyOutcome& outcome = outcome_of(study.name);
    const std::vector<std::string> lines = lines_of(outcome.csv);
    ASSERT_GT(lines.size(), 1u);  // header + data
    EXPECT_EQ(lines.front(), study.csv_header);
    const std::size_t columns = cells_of(study.csv_header).size();
    for (std::size_t i = 1; i < lines.size(); ++i) {
      EXPECT_EQ(cells_of(lines[i]).size(), columns) << "row " << i;
    }
  }
}

TEST(StudyParams, UnknownNamesAreErrorsBothWays) {
  st::StudyParams params = {{"days", 2.0}};
  EXPECT_EQ(params.get("days"), 2.0);
  params.set("days", 5.0);
  EXPECT_EQ(params.get_int("days"), 5);
  EXPECT_THROW(params.set("dayz", 1.0), st::StudyError);
  EXPECT_THROW(static_cast<void>(params.get("rate")), st::StudyError);
  params.set_from_token("days=3");
  EXPECT_EQ(params.get_int("days"), 3);
  EXPECT_THROW(params.set_from_token("days"), st::StudyError);
  EXPECT_THROW(params.set_from_token("days=abc"), st::StudyError);
}

TEST(Fig1Study, SharedWorkloadRowsAreIdentical) {
  const std::vector<std::string> lines = lines_of(outcome_of("fig1-workload-profiles").csv);
  ASSERT_EQ(lines.size(), 1u + 6u);
  // vm3 and vm4 share NutanixLike variant 0 with a pinned seed: their
  // rows must agree in every column but the name.
  const std::string vm3 = lines[1].substr(lines[1].find(','));
  const std::string vm4 = lines[2].substr(lines[2].find(','));
  EXPECT_EQ(vm3, vm4);
  // All six reconstructions are LLMI-class.
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(cells_of(lines[i]).at(2), "LLMI") << lines[i];
  }
}

TEST(Fig3Study, GraceOnSuppressesOscillation) {
  const std::vector<std::string> lines = lines_of(outcome_of("fig3-grace-ablation").csv);
  ASSERT_EQ(lines.size(), 1u + 8u);  // 4 grace tops x {on, off}
  long on_suspends = 0, off_suspends = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::vector<std::string> cells = cells_of(lines[i]);
    const long suspends = std::atol(cells.at(4).c_str());
    (cells.at(2) == "on" ? on_suspends : off_suspends) += suspends;
  }
  // The paper's §IV point: the grace time prevents hosts from
  // "alternating between fully awake and suspended states".
  EXPECT_LT(on_suspends, off_suspends);
  EXPECT_GT(off_suspends, 0);
}

TEST(Fig4Study, QuarterGridAndLlmuSpecificity) {
  const std::vector<std::string> lines = lines_of(outcome_of("fig4-im-efficiency").csv);
  ASSERT_EQ(lines.size(), 1u + 8u * 4u);  // 8 panels x 4 quarters (years=1)
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::vector<std::string> cells = cells_of(lines[i]);
    if (cells.at(0) == "fig4-h") {
      // The always-active LLMU trace: the model must not hallucinate
      // idleness (paper: specificity ~1).
      EXPECT_EQ(cells.at(2), "specificity");
      EXPECT_GT(std::atof(cells.at(7).c_str()), 0.95) << lines[i];
    }
  }
}

TEST(Table1Study, PerHostColumnsComeFromRunResults) {
  const std::vector<std::string> lines = lines_of(outcome_of("table1-suspend-fraction").csv);
  ASSERT_EQ(lines.size(), 1u + 2u);  // drowsy-dc and neat+s3
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::vector<std::string> cells = cells_of(lines[i]);
    ASSERT_EQ(cells.size(), 7u) << lines[i];
    for (std::size_t c = 1; c <= 5; ++c) {
      const double pct = std::atof(cells.at(c).c_str());
      EXPECT_GE(pct, 0.0) << lines[i];
      EXPECT_LE(pct, 100.0) << lines[i];
    }
  }
  // The control arm's gain column is zero by construction.
  EXPECT_EQ(cells_of(lines[2]).at(0), "neat+s3");
  EXPECT_EQ(cells_of(lines[2]).at(6), "0.000000");
}

double cell(const std::string& line, std::size_t column) {
  return std::atof(cells_of(line).at(column).c_str());
}

TEST(Fig5Study, GainColumnsAreTheRowsOwnKwhRatios) {
  const std::vector<std::string> lines = lines_of(outcome_of("fig5-llmi-sweep").csv);
  ASSERT_EQ(lines.size(), 1u + 5u);  // LLMI 0/25/50/75/100 %
  for (std::size_t i = 1; i < lines.size(); ++i) {
    SCOPED_TRACE(lines[i]);
    const double drowsy = cell(lines[i], 1), neat = cell(lines[i], 2);
    const double oasis = cell(lines[i], 4);
    EXPECT_NEAR(cell(lines[i], 5), 100.0 * (neat - drowsy) / neat, 1e-4);
    EXPECT_NEAR(cell(lines[i], 6), 100.0 * (oasis - drowsy) / oasis, 1e-4);
  }
  // An all-LLMI fleet is where idleness-aware placement pays most.
  EXPECT_EQ(cells_of(lines[5]).at(0), "100");
  EXPECT_LT(cell(lines[5], 1), cell(lines[5], 2));
}

TEST(Fig5Study, OpportunisticStepMovesOnlyTheDrowsyColumn) {
  const st::Study& study = builtin_study("fig5-llmi-sweep");
  st::StudyParams params = small_params(study);
  params.set("opportunistic_step", 0);
  const std::vector<std::string> with = lines_of(outcome_of("fig5-llmi-sweep").csv);
  const std::vector<std::string> without = lines_of(st::run_study(study, params, 2).csv);
  ASSERT_EQ(with.size(), without.size());
  bool drowsy_moved = false;
  for (std::size_t i = 1; i < with.size(); ++i) {
    const std::vector<std::string> a = cells_of(with[i]), b = cells_of(without[i]);
    // llmi_pct, then the neat, neat+s3 and oasis arms: byte-equal.
    for (const std::size_t c : {0u, 2u, 3u, 4u}) EXPECT_EQ(a.at(c), b.at(c)) << with[i];
    drowsy_moved = drowsy_moved || a.at(1) != b.at(1);
  }
  EXPECT_TRUE(drowsy_moved);
}

TEST(EnergyStudy, KwhOrderAndQuickResumeLatency) {
  const std::vector<std::string> lines = lines_of(outcome_of("energy-sla-testbed").csv);
  ASSERT_EQ(lines.size(), 1u + 6u);  // {quick, naive} x 3 policies
  std::map<std::string, std::vector<std::string>> rows;  // "resume/policy" -> cells
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::vector<std::string> cells = cells_of(lines[i]);
    rows[cells.at(1) + "/" + cells.at(2)] = cells;
  }
  const auto kwh = [&](const std::string& key) { return std::atof(rows.at(key).at(3).c_str()); };
  const auto p99 = [&](const std::string& key) { return std::atof(rows.at(key).at(5).c_str()); };
  for (const std::string resume : {"quick", "naive"}) {
    SCOPED_TRACE(resume);
    EXPECT_LT(kwh(resume + "/drowsy-dc"), kwh(resume + "/neat+s3"));
    EXPECT_LT(kwh(resume + "/neat+s3"), kwh(resume + "/neat-nosleep"));
  }
  EXPECT_GT(p99("naive/drowsy-dc"), p99("quick/drowsy-dc"));
  EXPECT_GT(p99("quick/drowsy-dc"), 0.0);
}

TEST(ReduceStudy, RejectsMismatchedResults) {
  const st::Study& study = builtin_study("fig3-grace-ablation");
  const st::StudyParams params = small_params(study);
  std::vector<sc::RunResult> results = outcome_of("fig3-grace-ablation").results;
  const std::vector<sc::BatchJob> jobs = st::jobs_for(study, params);

  // The full, faithful vector reduces to the same CSV as run_study did.
  EXPECT_EQ(st::reduce_study(study, params, jobs, results),
            outcome_of("fig3-grace-ablation").csv);

  // Truncated results: wrong grid size.
  std::vector<sc::RunResult> truncated(results.begin(), results.end() - 1);
  EXPECT_THROW(static_cast<void>(st::reduce_study(study, params, jobs, truncated)),
               st::StudyError);

  // Reordered rows: right size, wrong identities.
  std::vector<sc::RunResult> swapped = results;
  std::swap(swapped.front(), swapped.back());
  EXPECT_THROW(static_cast<void>(st::reduce_study(study, params, jobs, swapped)),
               st::StudyError);
}

}  // namespace
