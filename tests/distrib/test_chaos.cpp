// The chaos harness: kill the worker at every registered crash point
// (and with a real SIGKILL), then prove the fabric converges — reap or
// resume, the merged CSV must be byte-identical to the single-process
// run.  gtest death tests are the kill mechanism: the victim runs in a
// forked child whose exit code and stderr are asserted, while its
// on-disk damage persists for the parent to recover from.
#include <gtest/gtest.h>

#include <csignal>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "distrib/daemon.hpp"
#include "distrib/fault.hpp"
#include "distrib/journal.hpp"
#include "distrib/lease.hpp"
#include "distrib/merge.hpp"
#include "distrib/reaper.hpp"
#include "distrib/shard_runner.hpp"
#include "expctl/runs_io.hpp"
#include "expctl/spec_io.hpp"
#include "scenario/registry.hpp"

namespace dt = drowsy::distrib;
namespace ec = drowsy::expctl;
namespace fault = drowsy::distrib::fault;
namespace fs = std::filesystem;
namespace sc = drowsy::scenario;

namespace {

struct ChaosFixture : ::testing::Test {
  void SetUp() override { fault::disarm(); }
  void TearDown() override { fault::disarm(); }

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

  static const std::string& reference_csv() {
    static const std::string csv = [] {
      sc::BatchRunner runner(2);
      return sc::to_csv(runner.run(grid()));
    }();
    return csv;
  }

  static fs::path make_queue(const std::string& tag) {
    const fs::path root = fs::path(::testing::TempDir()) / ("drowsy_chaos_" + tag);
    fs::remove_all(root);
    fs::create_directories(root);
    if (!sc::write_file((root / "ci_smoke.json").string(), sweep_bytes())) {
      throw std::runtime_error("fixture setup failed");
    }
    dt::ShardManifest m;
    m.sweep_name = "ci-smoke";
    m.sweep_file = "ci_smoke.json";
    m.sweep_hash = ec::fnv1a64(sweep_bytes());
    m.shard_index = 0;
    m.shard_count = 1;
    m.total_jobs = grid().size();
    m.job_indices.resize(grid().size());
    for (std::size_t i = 0; i < grid().size(); ++i) m.job_indices[i] = i;
    if (!sc::write_file((root / "shard_0.json").string(), dt::to_json(m).dump())) {
      throw std::runtime_error("fixture setup failed");
    }
    return root;
  }

  static dt::DaemonOptions daemon_options(const fs::path& root,
                                          const std::string& worker) {
    dt::DaemonOptions opts;
    opts.queue_dir = root.string();
    opts.worker_id = worker;
    opts.threads = 2;
    opts.max_idle_s = 1.0;
    opts.poll_ms = 25;
    return opts;
  }

  /// The convergence oracle: after whatever carnage, a clean daemon run
  /// as `worker` must finish the queue and the merged journal must be
  /// the single-process bytes.
  static void assert_converges(const fs::path& root, const std::string& worker) {
    fault::disarm();
    const dt::DaemonOutcome outcome = dt::run_daemon(daemon_options(root, worker));
    EXPECT_EQ(outcome.failed, 0u);
    const dt::JournalContents done =
        dt::read_journal((root / "done" / "shard_0.journal.jsonl").string());
    ASSERT_EQ(done.entries.size(), grid().size());
    const auto merged = dt::merge_journals(grid(), done.entries);
    EXPECT_EQ(sc::to_csv(merged), reference_csv());
    EXPECT_TRUE(fs::exists(root / "done" / "shard_0.json"));
    EXPECT_FALSE(fs::exists(root / "shard_0.json"));
  }

  /// Park shard_0 under a dead worker with a full journal and an expired
  /// lease — the reaper's canonical prey.
  static fs::path park_dead_claim(const fs::path& root, bool with_journal) {
    const fs::path claimed = root / "claimed" / "deadworker";
    fs::create_directories(claimed);
    const fs::path manifest = claimed / "shard_0.json";
    fs::rename(root / "shard_0.json", manifest);
    if (with_journal) {
      const dt::ShardManifest m =
          dt::manifest_from_json(ec::Json::parse(ec::read_file(manifest.string())));
      static_cast<void>(dt::run_shard(grid(), m,
                                      (claimed / "shard_0.journal.jsonl").string(), 2));
    }
    dt::Lease lease;
    lease.worker_id = "deadworker";
    lease.manifest = "shard_0.json";
    lease.granted_unix_ms = 1;
    lease.renewed_unix_ms = 1;
    lease.ttl_s = 60.0;
    const std::string lease_path = dt::lease_path_for(manifest.string());
    dt::write_lease_file(lease_path, lease);
    fs::last_write_time(lease_path,
                        fs::file_time_type::clock::now() - std::chrono::hours(2));
    return manifest;
  }

  static dt::ReapOptions reap_options(const fs::path& root) {
    dt::ReapOptions opts;
    opts.queue_dir = root.string();
    opts.reaper_id = "chaos-reaper";
    return opts;
  }
};

}  // namespace

// Worker-side crash points: die there, restart the same worker, resume,
// converge byte-identically.  Every point is exercised in catalogue
// order so a newly added point cannot dodge the harness silently.
TEST_F(ChaosFixture, EveryDaemonCrashPointRecoversByResume) {
  if (!fault::compiled_in()) GTEST_SKIP() << "fault injection compiled out";
  const std::vector<std::string> points = {
      "daemon.after_claim",   "daemon.after_lease",   "journal.after_append",
      "journal.torn_append",  "daemon.before_archive", "daemon.mid_archive",
  };
  for (const std::string& point : points) {
    SCOPED_TRACE(point);
    const fs::path root = make_queue("d_" + point);
    EXPECT_EXIT(
        {
          fault::arm(point);
          static_cast<void>(dt::run_daemon(daemon_options(root, "w1")));
        },
        ::testing::ExitedWithCode(fault::kCrashExitCode),
        "crash point " + point + " triggered");

    // The kill really happened mid-protocol: the task is not archived
    // as complete-and-pending simultaneously, and a torn append left a
    // genuinely torn tail for resume to drop.  The lease precedes the
    // claim, so a death between the two leaves the task pending beside
    // an orphan lease that the restart clears.
    const fs::path lease = root / "claimed" / "w1" / "shard_0.lease.json";
    EXPECT_TRUE(fs::exists(lease)) << "lease granted before the claim";
    EXPECT_EQ(fs::exists(root / "claimed" / "w1" / "shard_0.json"),
              point != "daemon.after_lease")
        << "victim died owning its claim, unless it died before the rename";
    if (point == "journal.torn_append") {
      const dt::JournalContents torn = dt::read_journal(
          (root / "claimed" / "w1" / "shard_0.journal.jsonl").string());
      EXPECT_TRUE(torn.truncated_tail) << "half-written row must be on disk";
    }
    assert_converges(root, "w1");
    EXPECT_FALSE(fs::exists(lease)) << "released or cleared, never left behind";
  }
}

// A real SIGKILL (no crash-point cooperation, no cleanup of any kind)
// immediately after claiming: the restart-resume path converges.
TEST_F(ChaosFixture, SigkillAfterClaimRecoversByResume) {
  const fs::path root = make_queue("sigkill");
  EXPECT_EXIT(
      {
        dt::DaemonOptions opts = daemon_options(root, "w1");
        opts.on_event = [](const std::string& line) {
          if (line.rfind("claimed", 0) == 0) ::raise(SIGKILL);
        };
        static_cast<void>(dt::run_daemon(opts));
      },
      ::testing::KilledBySignal(SIGKILL), "");
  EXPECT_TRUE(fs::exists(root / "claimed" / "w1" / "shard_0.json"));
  assert_converges(root, "w1");
}

// Reaper-side crash points: die inside the reap, re-reap (or not — the
// commit may already have happened), drain with a fresh worker,
// converge.  The commit rename keeps "exactly once" through every cut:
// at no instant does the manifest exist both pending and claimed.
TEST_F(ChaosFixture, EveryReaperCrashPointConvergesExactlyOnce) {
  if (!fault::compiled_in()) GTEST_SKIP() << "fault injection compiled out";
  const std::vector<std::string> points = {
      "reaper.before_commit", "reaper.after_commit", "reaper.after_journal"};
  for (const std::string& point : points) {
    SCOPED_TRACE(point);
    const fs::path root = make_queue("r_" + point);
    const fs::path parked = park_dead_claim(root, /*with_journal=*/true);
    EXPECT_EXIT(
        {
          fault::arm(point);
          static_cast<void>(dt::reap_queue(reap_options(root)));
        },
        ::testing::ExitedWithCode(fault::kCrashExitCode),
        "crash point " + point + " triggered");

    // Never both pending and claimed — the rename is atomic.
    const bool pending = fs::exists(root / "shard_0.json");
    const bool claimed = fs::exists(parked);
    EXPECT_NE(pending, claimed) << "manifest must exist in exactly one place";
    EXPECT_EQ(pending, point != "reaper.before_commit")
        << "commit happens exactly at the commit rename";

    // A second reaper finishes (or finds nothing left to do)...
    fault::disarm();
    const dt::ReapOutcome again = dt::reap_queue(reap_options(root));
    EXPECT_EQ(again.reaped, point == "reaper.before_commit" ? 1u : 0u);
    EXPECT_TRUE(fs::exists(root / "shard_0.json"));
    // ...and a fresh worker drains the queue byte-identically.
    assert_converges(root, "w2");
  }
}

// daemon.after_adopt: the new owner dies the instant it adopts the
// reaped journal snapshot.  Restart-resume picks the adopted rows up
// from its own claimed/ directory.
TEST_F(ChaosFixture, AdoptionCrashRecoversWithTheAdoptedRows) {
  if (!fault::compiled_in()) GTEST_SKIP() << "fault injection compiled out";
  const fs::path root = make_queue("adopt");
  park_dead_claim(root, /*with_journal=*/true);
  const dt::ReapOutcome reaped = dt::reap_queue(reap_options(root));
  ASSERT_EQ(reaped.reaped, 1u);
  ASSERT_EQ(reaped.rows_preserved, grid().size());
  ASSERT_TRUE(fs::exists(root / "shard_0.journal.jsonl"));

  EXPECT_EXIT(
      {
        fault::arm("daemon.after_adopt");
        static_cast<void>(dt::run_daemon(daemon_options(root, "w2")));
      },
      ::testing::ExitedWithCode(fault::kCrashExitCode),
      "crash point daemon.after_adopt triggered");
  // The snapshot moved into the victim's claimed/ directory with it.
  EXPECT_TRUE(fs::exists(root / "claimed" / "w2" / "shard_0.journal.jsonl"));
  EXPECT_FALSE(fs::exists(root / "shard_0.journal.jsonl"));
  assert_converges(root, "w2");
}

// The full loop without any crash-point cooperation: dead worker,
// opportunistic reap by an idle daemon, adoption, convergence — the
// ROADMAP's "kill -9 any worker, the sweep still converges".
TEST_F(ChaosFixture, IdleDaemonReapsAdoptsAndConverges) {
  const fs::path root = make_queue("full_loop");
  park_dead_claim(root, /*with_journal=*/true);
  dt::DaemonOptions opts = daemon_options(root, "w2");
  const dt::DaemonOutcome outcome = dt::run_daemon(opts);
  EXPECT_EQ(outcome.reaped, 1u);
  EXPECT_EQ(outcome.completed, 1u);
  EXPECT_EQ(outcome.failed, 0u);
  const dt::JournalContents done =
      dt::read_journal((root / "done" / "shard_0.journal.jsonl").string());
  ASSERT_EQ(done.entries.size(), grid().size());
  EXPECT_EQ(sc::to_csv(dt::merge_journals(grid(), done.entries)), reference_csv());
  const auto reaps = dt::read_reap_journal(root.string());
  ASSERT_EQ(reaps.size(), 1u);
  EXPECT_EQ(reaps[0].reaper_id, "w2");
  EXPECT_EQ(reaps[0].rows_preserved, grid().size());
}
