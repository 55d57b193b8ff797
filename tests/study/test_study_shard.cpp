// Studies must run unchanged through the sharded pipeline: `study dump`
// emits a sweep document that round-trips through expctl and expands to
// the identical grid, and journals merged by distrib reduce to the same
// figure CSV as the direct path.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "distrib/journal.hpp"
#include "distrib/merge.hpp"
#include "distrib/shard.hpp"
#include "expctl/runs_io.hpp"
#include "expctl/spec_io.hpp"
#include "scenario/registry.hpp"
#include "study/study.hpp"

namespace dt = drowsy::distrib;
namespace ec = drowsy::expctl;
namespace sc = drowsy::scenario;
namespace st = drowsy::study;

namespace {

st::StudyParams small_params(const st::Study& study) {
  st::StudyParams params = study.params;
  params.set("days", 1);
  if (study.name == "fig4-im-efficiency") params.set("years", 1);
  return params;
}

TEST(StudyDump, SweepJsonRoundTripsToTheIdenticalGrid) {
  for (const st::Study& study : st::StudyRegistry::builtin().all()) {
    SCOPED_TRACE(study.name);
    const st::StudyParams params = small_params(study);
    const ec::SweepSpec sweep = study.sweep(params);
    // Serialize exactly as `drowsy_sweep study dump` does, then parse as
    // a worker would (`shard run` / the daemon).
    const ec::SweepSpec reparsed = ec::sweep_from_json(
        ec::Json::parse(ec::to_json(sweep).dump()), sc::ScenarioRegistry::builtin());
    const auto direct = ec::expand(sweep);
    const auto via_json = ec::expand(reparsed);
    ASSERT_EQ(direct.size(), via_json.size());
    const auto direct_keys = dt::job_keys(direct);
    const auto json_keys = dt::job_keys(via_json);
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(direct_keys[i].encode(), json_keys[i].encode()) << "job " << i;
      EXPECT_EQ(direct[i].spec.name, via_json[i].spec.name) << "job " << i;
    }
  }
}

TEST(StudyReduce, MergedJournalsReduceByteIdenticalToTheDirectPath) {
  const st::Study* found = st::StudyRegistry::builtin().find("fig3-grace-ablation");
  ASSERT_NE(found, nullptr);
  const st::Study& study = *found;
  const st::StudyParams params = small_params(study);
  const std::vector<sc::BatchJob> jobs = st::jobs_for(study, params);

  const st::StudyOutcome direct = st::run_study(study, params, 2);
  ASSERT_EQ(direct.results.size(), jobs.size());

  // Journal the runs as two shards would, in scrambled completion order;
  // a JSON round-trip per entry proves RunResult (including the per-host
  // fractions) survives the hand-off with exact bits.
  const std::vector<dt::JobKey> keys = dt::job_keys(jobs);
  std::vector<dt::JournalEntry> entries;
  for (std::size_t i = jobs.size(); i-- > 0;) {
    dt::JournalEntry entry;
    entry.index = i;
    entry.key = keys[i];
    entry.result = ec::run_result_from_json(
        ec::Json::parse(ec::to_json(direct.results[i]).dump()));
    entry.wall_ms = 1.0;
    entries.push_back(std::move(entry));
  }

  const std::vector<sc::RunResult> merged = dt::merge_journals(jobs, entries);
  EXPECT_EQ(st::reduce_study(study, params, jobs, merged), direct.csv);
}

}  // namespace
