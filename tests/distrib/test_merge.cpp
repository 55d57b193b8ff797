// End-to-end contract of the distrib subsystem, over the real CI smoke
// sweep: plan -> run shards (journaled) -> merge must reproduce the
// single-process pipeline byte for byte, including after a simulated
// crash-and-resume; merge must reject incomplete or mismatched journals.
#include "distrib/merge.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "distrib/shard_runner.hpp"
#include "expctl/report.hpp"
#include "expctl/runs_io.hpp"
#include "expctl/spec_io.hpp"
#include "scenario/registry.hpp"

namespace dt = drowsy::distrib;
namespace ec = drowsy::expctl;
namespace sc = drowsy::scenario;

namespace {

/// The expanded ci_smoke grid and the single-process reference results,
/// computed once (12 tiny runs) and shared by every test in this file.
struct SmokeFixture : ::testing::Test {
  static std::vector<sc::BatchJob>& grid() {
    static std::vector<sc::BatchJob> jobs = [] {
      const std::string path = std::string(DROWSY_SOURCE_DIR) + "/sweeps/ci_smoke.json";
      const ec::SweepSpec sweep = ec::sweep_from_json(
          ec::Json::parse(ec::read_file(path)), sc::ScenarioRegistry::builtin());
      return ec::expand(sweep);
    }();
    return jobs;
  }

  static std::vector<sc::RunResult>& reference() {
    static std::vector<sc::RunResult> results = [] {
      sc::BatchRunner runner(2);
      return runner.run(grid());
    }();
    return results;
  }

  static std::string temp_journal(const char* name) {
    const std::string path = ::testing::TempDir() + "drowsy_merge_" + name;
    std::remove(path.c_str());
    return path;
  }

  static dt::ShardManifest manifest_for(const std::vector<std::size_t>& indices,
                                        std::size_t shard_index, std::size_t shard_count) {
    dt::ShardManifest m;
    m.sweep_name = "ci-smoke";
    m.shard_index = shard_index;
    m.shard_count = shard_count;
    m.total_jobs = grid().size();
    m.job_indices = indices;
    return m;
  }

  /// plan + run every shard into temp journals, returning all entries.
  static std::vector<dt::JournalEntry> run_sharded(dt::ShardStrategy strategy,
                                                   std::size_t shard_count,
                                                   const char* tag) {
    const auto plan = dt::plan_shards(grid(), shard_count, strategy);
    std::vector<dt::JournalEntry> entries;
    for (std::size_t s = 0; s < plan.size(); ++s) {
      const std::string path =
          temp_journal((std::string(tag) + "_" + std::to_string(s) + ".jsonl").c_str());
      const dt::ShardRunOutcome outcome =
          dt::run_shard(grid(), manifest_for(plan[s], s, shard_count), path, 2);
      EXPECT_EQ(outcome.executed, plan[s].size());
      EXPECT_EQ(outcome.resumed, 0u);
      const dt::JournalContents contents = dt::read_journal(path);
      entries.insert(entries.end(), contents.entries.begin(), contents.entries.end());
    }
    return entries;
  }
};

}  // namespace

TEST_F(SmokeFixture, ShardedMergeIsByteIdenticalToSingleProcess) {
  const auto entries = run_sharded(dt::ShardStrategy::Balanced, 3, "identity");
  const auto merged = dt::merge_journals(grid(), entries);

  // The per-run, per-stat and per-verdict CSVs — the artifacts users
  // diff — must match the single-process pipeline byte for byte.
  EXPECT_EQ(sc::to_csv(merged), sc::to_csv(reference()));
  EXPECT_EQ(ec::to_csv(ec::summarize(merged)), ec::to_csv(ec::summarize(reference())));
  EXPECT_EQ(ec::to_csv(ec::compare_policies(merged)),
            ec::to_csv(ec::compare_policies(reference())));
}

TEST_F(SmokeFixture, ResumeAfterTruncatedJournalConvergesByteIdentically) {
  // One shard owning the whole grid: run it, tear its journal mid-row,
  // then resume.  Completed jobs must be skipped and the merged output
  // must still match the reference exactly.
  const auto plan = dt::plan_shards(grid(), 1, dt::ShardStrategy::Contiguous);
  const dt::ShardManifest manifest = manifest_for(plan[0], 0, 1);
  const std::string path = temp_journal("resume.jsonl");
  static_cast<void>(dt::run_shard(grid(), manifest, path, 2));

  // Keep 5 complete rows plus a torn prefix of the 6th.
  const dt::JournalContents full = dt::read_journal(path);
  ASSERT_EQ(full.entries.size(), grid().size());
  std::string text;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
    std::fclose(f);
  }
  std::size_t offset = 0;
  for (int i = 0; i < 5; ++i) offset = text.find('\n', offset) + 1;
  const std::string torn = text.substr(0, offset + 40);  // 5 rows + partial 6th
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(torn.data(), 1, torn.size(), f), torn.size());
    std::fclose(f);
  }

  const dt::ShardRunOutcome outcome = dt::run_shard(grid(), manifest, path, 2);
  EXPECT_EQ(outcome.resumed, 5u);
  EXPECT_EQ(outcome.executed, grid().size() - 5);

  const dt::JournalContents resumed = dt::read_journal(path);
  ASSERT_EQ(resumed.entries.size(), grid().size());
  EXPECT_FALSE(resumed.truncated_tail);
  const auto merged = dt::merge_journals(grid(), resumed.entries);
  EXPECT_EQ(sc::to_csv(merged), sc::to_csv(reference()));
}

TEST_F(SmokeFixture, ResumeRejectsRowWithoutWallMsAndKeepsTheJournal) {
  // A finished row without wall_ms is not this schema.  Resume must stop
  // with a typed error rather than count or re-run it, and must leave
  // the journal's bytes alone for the operator to inspect.
  const auto plan = dt::plan_shards(grid(), 1, dt::ShardStrategy::Contiguous);
  const dt::ShardManifest manifest = manifest_for(plan[0], 0, 1);
  const std::string path = temp_journal("no_wall_ms.jsonl");
  const auto keys = dt::job_keys(grid());
  std::string text;
  for (std::size_t i = 0; i < 5; ++i) {
    dt::JournalEntry row;
    row.index = i;
    row.key = keys[i];
    row.result = reference()[i];
    const ec::Json full = dt::to_json(row);
    ec::Json j = ec::Json::object();
    for (const auto& [key, value] : full.items()) {
      if (key != "wall_ms" || i != 3) j.set(key, value);
    }
    text += j.dump(0) + "\n";
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
    std::fclose(f);
  }

  EXPECT_THROW(static_cast<void>(dt::run_shard(grid(), manifest, path, 2)),
               dt::DistribError);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string after(text.size() + 1, '\0');
  after.resize(std::fread(after.data(), 1, after.size(), f));
  std::fclose(f);
  EXPECT_EQ(after, text);
}

TEST_F(SmokeFixture, ResumeAccountsDuplicateJobKeysPerSlot) {
  // A grid may hold the same (spec, policy, seed) in two slots (a sweep
  // listing one scenario twice).  Resume must count journal rows per
  // slot, not per key — a key-set would mark both slots done off a
  // single row and strand the second job forever.
  const std::vector<sc::BatchJob> dup_grid = {grid()[0], grid()[0]};
  dt::ShardManifest m;
  m.sweep_name = "dup";
  m.total_jobs = 2;
  m.job_indices = {0, 1};
  const std::string path = temp_journal("dupkeys.jsonl");

  const dt::ShardRunOutcome first = dt::run_shard(dup_grid, m, path, 2);
  EXPECT_EQ(first.executed, 2u);

  // Cut the journal back to one row: exactly one of the two slots done.
  std::string text;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
    std::fclose(f);
  }
  const std::string one_row = text.substr(0, text.find('\n') + 1);
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(one_row.data(), 1, one_row.size(), f), one_row.size());
    std::fclose(f);
  }

  const dt::ShardRunOutcome second = dt::run_shard(dup_grid, m, path, 2);
  EXPECT_EQ(second.resumed, 1u);
  EXPECT_EQ(second.executed, 1u);

  // Fully journaled: idempotent, and no spurious "duplicate rows" error.
  const dt::ShardRunOutcome third = dt::run_shard(dup_grid, m, path, 2);
  EXPECT_EQ(third.resumed, 2u);
  EXPECT_EQ(third.executed, 0u);
  EXPECT_EQ(dt::merge_journals(dup_grid, dt::read_journal(path).entries).size(), 2u);
}

TEST_F(SmokeFixture, RunShardIsIdempotentOnceComplete) {
  const auto plan = dt::plan_shards(grid(), 2, dt::ShardStrategy::Strided);
  const dt::ShardManifest manifest = manifest_for(plan[0], 0, 2);
  const std::string path = temp_journal("idempotent.jsonl");
  static_cast<void>(dt::run_shard(grid(), manifest, path, 2));
  const std::size_t size_before = dt::read_journal(path).valid_bytes;

  const dt::ShardRunOutcome again = dt::run_shard(grid(), manifest, path, 2);
  EXPECT_EQ(again.resumed, plan[0].size());
  EXPECT_EQ(again.executed, 0u);
  EXPECT_EQ(dt::read_journal(path).valid_bytes, size_before);
}

TEST_F(SmokeFixture, MergeRejectsMissingDuplicateAndForeignRows) {
  const auto entries = run_sharded(dt::ShardStrategy::Strided, 2, "reject");
  ASSERT_EQ(entries.size(), grid().size());

  // Missing: drop one row.
  std::vector<dt::JournalEntry> missing(entries.begin(), entries.end() - 1);
  try {
    static_cast<void>(dt::merge_journals(grid(), missing));
    FAIL() << "merge must reject an uncovered grid";
  } catch (const dt::DistribError& e) {
    EXPECT_NE(std::string(e.what()).find("no journal row"), std::string::npos);
  }

  // Duplicate: the same row twice.
  std::vector<dt::JournalEntry> duplicated = entries;
  duplicated.push_back(entries.front());
  EXPECT_THROW(static_cast<void>(dt::merge_journals(grid(), duplicated)),
               dt::DistribError);

  // Foreign: a row whose spec hash matches no grid job.
  std::vector<dt::JournalEntry> foreign = entries;
  foreign.back().key.spec_hash ^= 1;
  EXPECT_THROW(static_cast<void>(dt::merge_journals(grid(), foreign)), dt::DistribError);

  // Key-consistent but payload-tampered: the embedded result's scenario
  // disagrees with the matched grid slot — rejected, not merged.
  std::vector<dt::JournalEntry> tampered = entries;
  tampered.back().result.scenario = "impostor";
  EXPECT_THROW(static_cast<void>(dt::merge_journals(grid(), tampered)),
               dt::DistribError);

  // Untouched entries still merge (the fixtures above didn't mutate them).
  EXPECT_EQ(dt::merge_journals(grid(), entries).size(), grid().size());
}

TEST_F(SmokeFixture, CoverageCountsForStatus) {
  const auto plan = dt::plan_shards(grid(), 3, dt::ShardStrategy::Balanced);
  const std::string path = temp_journal("status.jsonl");
  static_cast<void>(dt::run_shard(grid(), manifest_for(plan[1], 1, 3), path, 2));
  const dt::JournalContents contents = dt::read_journal(path);

  const dt::Coverage cov = dt::cover_grid(grid(), contents.entries);
  EXPECT_EQ(cov.total, grid().size());
  EXPECT_EQ(cov.completed, plan[1].size());
  EXPECT_EQ(cov.missing.size(), grid().size() - plan[1].size());
  EXPECT_TRUE(cov.duplicates.empty());
  EXPECT_TRUE(cov.foreign.empty());
  EXPECT_FALSE(cov.complete());
}
