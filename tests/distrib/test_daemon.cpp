// Queue-daemon contract, over the real CI smoke sweep: concurrent
// daemons must partition the queue exactly (rename-claiming), drain it
// into done/ journals whose merge is byte-identical to a single-process
// run, quarantine broken tasks in failed/, resume their own crashed
// claims, and honor the STOP sentinel.  A task whose sweep is corrupt
// fails with the sweep's path in its error file, and a reaped journal
// snapshot that does not fit its shard is discarded, not adopted.  The
// task loader both the daemon and `shard run` use finds a sweep in the
// lookup directory first, then at its recorded path.
#include "distrib/daemon.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "distrib/lease.hpp"
#include "distrib/merge.hpp"
#include "distrib/reaper.hpp"
#include "distrib/shard_runner.hpp"
#include "expctl/runs_io.hpp"
#include "expctl/spec_io.hpp"
#include "obs/snapshot.hpp"
#include "scenario/registry.hpp"
#include "util/log.hpp"

namespace dt = drowsy::distrib;
namespace ec = drowsy::expctl;
namespace fs = std::filesystem;
namespace sc = drowsy::scenario;

namespace {

struct DaemonFixture : ::testing::Test {
  static const std::string& sweep_bytes() {
    static const std::string bytes =
        ec::read_file(std::string(DROWSY_SOURCE_DIR) + "/sweeps/ci_smoke.json");
    return bytes;
  }

  static std::vector<sc::BatchJob>& grid() {
    static std::vector<sc::BatchJob> jobs = [] {
      const ec::SweepSpec sweep = ec::sweep_from_json(ec::Json::parse(sweep_bytes()),
                                                      sc::ScenarioRegistry::builtin());
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

  /// Fresh queue root with the sweep file enqueued beside the manifests.
  static fs::path make_queue(const char* tag, std::size_t shard_count) {
    const fs::path root = fs::path(::testing::TempDir()) / (std::string("drowsy_q_") + tag);
    fs::remove_all(root);
    fs::create_directories(root);
    ASSERT_TRUE_OR_THROW(sc::write_file((root / "ci_smoke.json").string(), sweep_bytes()));
    const auto plan = dt::plan_shards(grid(), shard_count, dt::ShardStrategy::Balanced);
    for (std::size_t s = 0; s < plan.size(); ++s) {
      dt::ShardManifest m;
      m.sweep_name = "ci-smoke";
      m.sweep_file = "ci_smoke.json";  // resolved by basename in the queue root
      m.sweep_hash = ec::fnv1a64(sweep_bytes());
      m.shard_index = s;
      m.shard_count = shard_count;
      m.total_jobs = grid().size();
      m.job_indices = plan[s];
      const fs::path path = root / ("shard_" + std::to_string(s) + ".json");
      ASSERT_TRUE_OR_THROW(sc::write_file(path.string(), dt::to_json(m).dump()));
    }
    return root;
  }

  static dt::DaemonOptions options(const fs::path& root, const std::string& worker) {
    dt::DaemonOptions opts;
    opts.queue_dir = root.string();
    opts.worker_id = worker;
    opts.threads = 2;
    opts.max_idle_s = 1.0;
    opts.poll_ms = 25;
    return opts;
  }

  /// gtest's ASSERT_* macros cannot run in non-void helpers.
  static void ASSERT_TRUE_OR_THROW(bool ok) {
    if (!ok) throw std::runtime_error("fixture setup failed");
  }
};

}  // namespace

TEST_F(DaemonFixture, TwoDaemonsDrainASharedQueueByteIdentically) {
  const fs::path root = make_queue("pair", 3);

  dt::DaemonOutcome first;
  dt::DaemonOutcome second;
  std::thread w1([&] { first = dt::run_daemon(options(root, "w1")); });
  std::thread w2([&] { second = dt::run_daemon(options(root, "w2")); });
  w1.join();
  w2.join();

  // Every task done exactly once, none failed, queue root drained.
  EXPECT_EQ(first.completed + second.completed, 3u);
  EXPECT_EQ(first.failed + second.failed, 0u);
  EXPECT_EQ(first.exit, dt::DaemonExit::Idle);
  EXPECT_EQ(second.exit, dt::DaemonExit::Idle);
  for (std::size_t s = 0; s < 3; ++s) {
    const std::string name = "shard_" + std::to_string(s);
    EXPECT_FALSE(fs::exists(root / (name + ".json")));
    EXPECT_TRUE(fs::exists(root / "done" / (name + ".json")));
    EXPECT_TRUE(fs::exists(root / "done" / (name + ".journal.jsonl")));
  }

  // The merged journals reproduce the single-process batch bit for bit,
  // and every daemon-written row carries a measured duration.
  std::vector<dt::JournalEntry> entries;
  for (std::size_t s = 0; s < 3; ++s) {
    const dt::JournalContents contents = dt::read_journal(
        (root / "done" / ("shard_" + std::to_string(s) + ".journal.jsonl")).string());
    for (const dt::JournalEntry& entry : contents.entries) {
      EXPECT_GT(entry.wall_ms, 0.0);
    }
    entries.insert(entries.end(), contents.entries.begin(), contents.entries.end());
  }
  const auto merged = dt::merge_journals(grid(), entries);
  EXPECT_EQ(sc::to_csv(merged), sc::to_csv(reference()));
}

TEST_F(DaemonFixture, StopSentinelExitsWithoutClaiming) {
  const fs::path root = make_queue("stop", 1);
  ASSERT_TRUE(sc::write_file((root / "STOP").string(), ""));

  dt::DaemonOptions opts = options(root, "w1");
  opts.max_idle_s = 30.0;  // STOP must fire long before idleness would
  const dt::DaemonOutcome outcome = dt::run_daemon(opts);
  EXPECT_EQ(outcome.exit, dt::DaemonExit::Stopped);
  EXPECT_EQ(outcome.completed, 0u);
  EXPECT_TRUE(fs::exists(root / "shard_0.json")) << "task must stay pending";
}

TEST_F(DaemonFixture, BrokenTaskIsQuarantinedAndServiceContinues) {
  const fs::path root = make_queue("broken", 2);
  // Corrupt shard_0: a hash mismatch (planned against different sweep
  // bytes) is exactly the drift validate_manifest must refuse.
  dt::ShardManifest bad = dt::manifest_from_json(
      ec::Json::parse(ec::read_file((root / "shard_0.json").string())));
  bad.sweep_hash = ec::fnv1a64("not the sweep");
  ASSERT_TRUE(sc::write_file((root / "shard_0.json").string(), dt::to_json(bad).dump()));

  const dt::DaemonOutcome outcome = dt::run_daemon(options(root, "w1"));
  EXPECT_EQ(outcome.completed, 1u);
  EXPECT_EQ(outcome.failed, 1u);
  EXPECT_TRUE(fs::exists(root / "failed" / "shard_0.json"));
  EXPECT_TRUE(fs::exists(root / "failed" / "shard_0.error.txt"));
  EXPECT_TRUE(fs::exists(root / "done" / "shard_1.journal.jsonl"));
}

TEST_F(DaemonFixture, RestartResumesOwnClaimedTasks) {
  const fs::path root = make_queue("resume", 1);
  // Simulate a daemon that died right after claiming: the manifest sits
  // in claimed/w1/ and the queue root has no pending copy.
  const fs::path claimed = root / "claimed" / "w1";
  fs::create_directories(claimed);
  fs::rename(root / "shard_0.json", claimed / "shard_0.json");
  // An earlier life also died between granting a lease and the claim
  // rename: the orphan lease names no manifest and must be cleared.
  dt::Lease orphan;
  orphan.worker_id = "w1";
  orphan.manifest = "shard_9.json";
  orphan.ttl_s = 900.0;
  dt::write_lease_file((claimed / "shard_9.lease.json").string(), orphan);

  const dt::DaemonOutcome outcome = dt::run_daemon(options(root, "w1"));
  EXPECT_EQ(outcome.completed, 1u);
  EXPECT_EQ(outcome.failed, 0u);
  EXPECT_TRUE(fs::exists(root / "done" / "shard_0.json"));
  EXPECT_TRUE(fs::exists(root / "done" / "shard_0.journal.jsonl"));
  EXPECT_TRUE(fs::is_empty(claimed));
}

TEST_F(DaemonFixture, ALeaselessClaimIsExpiredAtOnce) {
  const fs::path root = make_queue("leaseless", 2);
  // No claimed/ directory yet: there are no claims, and that is not an
  // error.
  EXPECT_TRUE(dt::list_claims(root.string()).empty());

  // A manifest parked by hand, with no lease beside it: nobody vouches
  // for it, so it is reapable immediately, however fresh its mtime.
  const fs::path claimed = root / "claimed" / "deadworker";
  fs::create_directories(claimed);
  fs::rename(root / "shard_0.json", claimed / "shard_0.json");
  // Its journal (not a manifest) must not count as a claim.
  ASSERT_TRUE_OR_THROW(
      sc::write_file((claimed / "shard_0.journal.jsonl").string(), "{}\n"));

  const auto claims = dt::list_claims(root.string());
  ASSERT_EQ(claims.size(), 1u);
  EXPECT_EQ(claims[0].worker_id, "deadworker");
  EXPECT_EQ(claims[0].manifest_path, (claimed / "shard_0.json").string());
  EXPECT_FALSE(claims[0].has_lease);
  EXPECT_EQ(claims[0].age_s, 0.0);
  EXPECT_EQ(claims[0].lease_remaining_s(), 0.0);
  EXPECT_TRUE(claims[0].expired());

  // A missing queue root stays a hard error, matching run_daemon.
  EXPECT_THROW(static_cast<void>(dt::list_claims(
                   (fs::path(::testing::TempDir()) / "drowsy_q_missing").string())),
               dt::DistribError);
}

TEST_F(DaemonFixture, UnusableQueueThrows) {
  dt::DaemonOptions opts;
  opts.queue_dir = (fs::path(::testing::TempDir()) / "drowsy_q_nonexistent").string();
  opts.worker_id = "w1";
  EXPECT_THROW(static_cast<void>(dt::run_daemon(opts)), dt::DistribError);

  const fs::path root = make_queue("badworker", 1);
  dt::DaemonOptions bad_worker = options(root, "a/b");
  EXPECT_THROW(static_cast<void>(dt::run_daemon(bad_worker)), dt::DistribError);
  dt::DaemonOptions empty_worker = options(root, "");
  EXPECT_THROW(static_cast<void>(dt::run_daemon(empty_worker)), dt::DistribError);
}

TEST_F(DaemonFixture, TheMetricsSnapshotIsNotLivenessEvidence) {
  namespace obs = drowsy::obs;
  const fs::path root = make_queue("snapshot", 1);
  const fs::path claimed = root / "claimed" / "slowworker";
  fs::create_directories(claimed);
  fs::rename(root / "shard_0.json", claimed / "shard_0.json");
  dt::Lease lease;
  lease.worker_id = "slowworker";
  lease.manifest = "shard_0.json";
  lease.granted_unix_ms = 1;
  lease.renewed_unix_ms = 1;
  lease.ttl_s = 60.0;
  const std::string lease_path = dt::lease_path_for((claimed / "shard_0.json").string());
  dt::write_lease_file(lease_path, lease);
  fs::last_write_time(lease_path, fs::file_time_type::clock::now() - std::chrono::hours(2));

  // A fresh metrics snapshot from the same worker changes nothing: the
  // lease alone decides, and this one ran out long ago.
  obs::WorkerSnapshot snap;
  snap.worker_id = "slowworker";
  snap.updated_unix_ms = obs::wall_clock_unix_ms();
  obs::write_snapshot_file((root / "metrics" / "slowworker.json").string(), snap);
  const auto claims = dt::list_claims(root.string());
  ASSERT_EQ(claims.size(), 1u);
  EXPECT_TRUE(claims[0].has_lease);
  EXPECT_GE(claims[0].age_s, 3600.0);
  EXPECT_LT(claims[0].lease_remaining_s(), 0.0);
  EXPECT_TRUE(claims[0].expired());
}

TEST_F(DaemonFixture, DaemonPublishesAMetricsSnapshot) {
  namespace obs = drowsy::obs;
  const fs::path root = make_queue("metrics", 2);
  const dt::DaemonOutcome outcome = dt::run_daemon(options(root, "w1"));
  EXPECT_EQ(outcome.completed, 2u);

  const obs::WorkerSnapshot snap =
      obs::read_snapshot_file((root / "metrics" / "w1.json").string());
  EXPECT_EQ(snap.worker_id, "w1");
  EXPECT_GT(snap.updated_unix_ms, 0u);
  EXPECT_EQ(snap.tasks_done, 2u);
  EXPECT_EQ(snap.tasks_failed, 0u);
  EXPECT_EQ(snap.jobs_done, grid().size());
  EXPECT_EQ(snap.journal_rows, grid().size());
  // The event-core profile accumulated across every executed run.
  EXPECT_GT(snap.profile.total_events(), 0u);
  // Every executed task materialized at least one workload trace.
  EXPECT_GT(snap.trace_cache_misses, 0u);
}

TEST_F(DaemonFixture, DaemonGrantsRenewsAndReleasesLeases) {
  const fs::path root = make_queue("lease", 1);
  dt::DaemonOptions opts = options(root, "w1");
  opts.lease_ttl_s = 123.0;

  // At the "claimed" event the lease file must already exist — the grant
  // happens before the task is announced, so no observable claim is ever
  // lease-less.
  bool lease_seen_at_claim = false;
  dt::Lease observed;
  opts.on_event = [&](const std::string& line) {
    if (line.rfind("claimed", 0) != 0) return;
    const std::string lease_path =
        dt::lease_path_for((root / "claimed" / "w1" / "shard_0.json").string());
    if (fs::exists(lease_path)) {
      lease_seen_at_claim = true;
      observed = dt::read_lease_file(lease_path);
    }
  };

  const dt::DaemonOutcome outcome = dt::run_daemon(opts);
  EXPECT_EQ(outcome.completed, 1u);
  ASSERT_TRUE(lease_seen_at_claim);
  EXPECT_EQ(observed.worker_id, "w1");
  EXPECT_EQ(observed.manifest, "shard_0.json");
  EXPECT_EQ(observed.ttl_s, 123.0);
  EXPECT_GE(observed.renewed_unix_ms, observed.granted_unix_ms);
  // Released with the archive: the claim directory holds nothing back.
  EXPECT_TRUE(fs::is_empty(root / "claimed" / "w1"));
  EXPECT_TRUE(dt::list_claims(root.string()).empty());
}

TEST_F(DaemonFixture, LeaseFilesAreNotMistakenForTasks) {
  // Regression: the leftover scan and list_claims both walk
  // claimed/<worker>/*.json — a lease file must never be executed as (or
  // quarantined as) a task.
  const fs::path root = make_queue("leasefile", 1);
  const fs::path claimed = root / "claimed" / "w1";
  fs::create_directories(claimed);
  fs::rename(root / "shard_0.json", claimed / "shard_0.json");
  dt::Lease lease;
  lease.worker_id = "w1";
  lease.manifest = "shard_0.json";
  lease.granted_unix_ms = 1;
  lease.renewed_unix_ms = 1;
  lease.ttl_s = 900.0;
  dt::write_lease_file(dt::lease_path_for((claimed / "shard_0.json").string()),
                       lease);

  const dt::DaemonOutcome outcome = dt::run_daemon(options(root, "w1"));
  EXPECT_EQ(outcome.completed, 1u);
  EXPECT_EQ(outcome.failed, 0u) << "lease file must not be quarantined";
  EXPECT_TRUE(fs::exists(root / "done" / "shard_0.json"));
  EXPECT_FALSE(fs::exists(root / "failed" / "shard_0.lease.json"));
  // And list_claims reports exactly one claim for the pair, not two.
  fs::create_directories(root / "claimed" / "w2");
  fs::copy_file(root / "done" / "shard_0.json",
                root / "claimed" / "w2" / "shard_0.json");
  lease.worker_id = "w2";
  dt::write_lease_file(
      dt::lease_path_for((root / "claimed" / "w2" / "shard_0.json").string()),
      lease);
  fs::last_write_time(root / "claimed" / "w2" / "shard_0.lease.json",
                      fs::file_time_type::clock::now() - std::chrono::hours(2));
  const auto claims = dt::list_claims(root.string());
  ASSERT_EQ(claims.size(), 1u);
  EXPECT_TRUE(claims[0].has_lease);
  EXPECT_TRUE(claims[0].expired());
}

TEST_F(DaemonFixture, IdleDaemonReapsAJournallessClaimAndReExecutesIt) {
  // A lease-less claim with no journal rows: the reap preserves zero
  // rows and the re-execution runs the shard from scratch — still
  // exactly once, still byte-identical.
  const fs::path root = make_queue("idlereap", 1);
  const fs::path claimed = root / "claimed" / "deadworker";
  fs::create_directories(claimed);
  fs::rename(root / "shard_0.json", claimed / "shard_0.json");

  const dt::DaemonOutcome outcome = dt::run_daemon(options(root, "w2"));
  EXPECT_EQ(outcome.reaped, 1u);
  EXPECT_EQ(outcome.completed, 1u);
  EXPECT_EQ(outcome.failed, 0u);

  const dt::JournalContents done =
      dt::read_journal((root / "done" / "shard_0.journal.jsonl").string());
  ASSERT_EQ(done.entries.size(), grid().size());
  const auto merged = dt::merge_journals(grid(), done.entries);
  EXPECT_EQ(sc::to_csv(merged), sc::to_csv(reference()));

  const auto reaps = dt::read_reap_journal(root.string());
  ASSERT_EQ(reaps.size(), 1u);
  EXPECT_EQ(reaps[0].worker_id, "deadworker");
  EXPECT_EQ(reaps[0].rows_preserved, 0u);
}

TEST_F(DaemonFixture, ReapingCanBeDisabled) {
  const fs::path root = make_queue("noreap", 1);
  const fs::path claimed = root / "claimed" / "deadworker";
  fs::create_directories(claimed);
  fs::rename(root / "shard_0.json", claimed / "shard_0.json");

  dt::DaemonOptions opts = options(root, "w2");
  opts.reap = false;
  const dt::DaemonOutcome outcome = dt::run_daemon(opts);
  EXPECT_EQ(outcome.reaped, 0u);
  EXPECT_EQ(outcome.completed, 0u);
  EXPECT_TRUE(fs::exists(claimed / "shard_0.json")) << "claim left untouched";
}

TEST_F(DaemonFixture, ACorruptSweepFailsTheTaskNamingTheSweep) {
  const fs::path root = make_queue("corrupt", 1);
  const fs::path sweep = root / "ci_smoke.json";
  ASSERT_TRUE(sc::write_file(sweep.string(), sweep_bytes().substr(0, 48)));

  const dt::DaemonOutcome outcome = dt::run_daemon(options(root, "w1"));
  EXPECT_EQ(outcome.completed, 0u);
  EXPECT_EQ(outcome.failed, 1u);
  const std::string error = ec::read_file((root / "failed" / "shard_0.error.txt").string());
  EXPECT_NE(error.find(sweep.string() + ": "), std::string::npos) << error;
}

TEST_F(DaemonFixture, AReapedJournalThatDoesNotFitTheShardIsDiscarded) {
  const fs::path root = make_queue("foreign", 2);
  const auto plan = dt::plan_shards(grid(), 2, dt::ShardStrategy::Balanced);
  ASSERT_FALSE(plan[1].empty());
  // A reaper-published snapshot beside shard_0 holding one of shard_1's
  // rows: stale work from another task under the same name.
  {
    dt::JournalWriter writer((root / "shard_0.journal.jsonl").string(), 0);
    dt::JournalEntry entry;
    entry.index = plan[1][0];
    entry.key = dt::job_keys(grid())[entry.index];
    entry.result = reference()[entry.index];
    entry.wall_ms = 1.0;
    writer.append(entry);
  }

  std::vector<std::string> warnings;
  drowsy::util::set_log_sink(
      [&warnings](drowsy::util::LogLevel level, const char*, const std::string& message) {
        if (level == drowsy::util::LogLevel::Warn) warnings.push_back(message);
      });
  std::vector<std::string> events;
  dt::DaemonOptions opts = options(root, "w1");
  opts.on_event = [&events](const std::string& line) { events.push_back(line); };
  const dt::DaemonOutcome outcome = dt::run_daemon(opts);
  drowsy::util::set_log_sink({});

  EXPECT_EQ(outcome.completed, 2u);
  EXPECT_EQ(outcome.failed, 0u);
  EXPECT_FALSE(fs::exists(root / "shard_0.journal.jsonl"));
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("discarding foreign journal snapshot"), std::string::npos);
  EXPECT_NE(warnings[0].find("not in shard 0"), std::string::npos) << warnings[0];
  for (const std::string& line : events) {
    EXPECT_EQ(line.find("adopted"), std::string::npos) << line;
  }

  // shard_0 ran every one of its jobs afresh, and the queue's merge is
  // the single-process run byte for byte.
  std::vector<dt::JournalEntry> entries;
  for (std::size_t s = 0; s < 2; ++s) {
    const dt::JournalContents contents = dt::read_journal(
        (root / "done" / ("shard_" + std::to_string(s) + ".journal.jsonl")).string());
    EXPECT_EQ(contents.entries.size(), plan[s].size());
    entries.insert(entries.end(), contents.entries.begin(), contents.entries.end());
  }
  EXPECT_EQ(sc::to_csv(dt::merge_journals(grid(), entries)), sc::to_csv(reference()));
}

TEST_F(DaemonFixture, ShardTasksFindTheirSweepInTheLookupDirectoryThenAtTheRecordedPath) {
  const fs::path root = make_queue("lookup", 2);
  const std::string manifest = (root / "shard_1.json").string();
  const dt::ShardTask task = dt::load_shard_task(manifest, root.string());
  EXPECT_EQ(task.manifest.shard_index, 1u);
  EXPECT_EQ(task.grid.size(), grid().size());
  EXPECT_EQ(dt::journal_path_for(manifest), (root / "shard_1.journal.jsonl").string());

  // Not in the lookup directory: the recorded path is used as given.
  const fs::path elsewhere = root / "elsewhere";
  fs::create_directories(elsewhere);
  dt::ShardManifest m = task.manifest;
  m.sweep_file = std::string(DROWSY_SOURCE_DIR) + "/sweeps/ci_smoke.json";
  ASSERT_TRUE(sc::write_file((elsewhere / "m.json").string(), dt::to_json(m).dump()));
  EXPECT_EQ(dt::load_shard_task((elsewhere / "m.json").string(), elsewhere.string()).grid.size(),
            grid().size());

  // In neither place, or a manifest that does not parse: the error names
  // the file at fault.
  m.sweep_file = "nowhere/missing.json";
  ASSERT_TRUE(sc::write_file((elsewhere / "m.json").string(), dt::to_json(m).dump()));
  try {
    static_cast<void>(dt::load_shard_task((elsewhere / "m.json").string(), elsewhere.string()));
    ADD_FAILURE() << "a missing sweep must throw";
  } catch (const dt::DistribError& e) {
    EXPECT_NE(std::string(e.what()).find((elsewhere / "missing.json").string()),
              std::string::npos)
        << e.what();
  }
  ASSERT_TRUE(sc::write_file((elsewhere / "bad.json").string(), "{"));
  try {
    static_cast<void>(dt::load_shard_task((elsewhere / "bad.json").string(), elsewhere.string()));
    ADD_FAILURE() << "a corrupt manifest must throw";
  } catch (const dt::DistribError& e) {
    EXPECT_EQ(std::string(e.what()).rfind((elsewhere / "bad.json").string() + ": ", 0), 0u)
        << e.what();
  }
}
