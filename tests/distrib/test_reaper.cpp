// Lease + reaper contract: expired claims return to the queue exactly
// once, journaled work survives the trip, live owners and races are
// never harmed, and the reap journal records every recovery.  Uses the
// real CI smoke sweep so "converges byte-identically" is checked against
// the actual single-process run, not a mock.
#include "distrib/reaper.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "distrib/daemon.hpp"
#include "distrib/journal.hpp"
#include "distrib/merge.hpp"
#include "distrib/shard_runner.hpp"
#include "expctl/runs_io.hpp"
#include "expctl/spec_io.hpp"
#include "scenario/registry.hpp"

namespace dt = drowsy::distrib;
namespace ec = drowsy::expctl;
namespace fs = std::filesystem;
namespace sc = drowsy::scenario;

namespace {

struct ReaperFixture : ::testing::Test {
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

  static fs::path make_queue(const char* tag, std::size_t shard_count) {
    const fs::path root =
        fs::path(::testing::TempDir()) / (std::string("drowsy_reap_") + tag);
    fs::remove_all(root);
    fs::create_directories(root);
    ASSERT_TRUE_OR_THROW(sc::write_file((root / "ci_smoke.json").string(), sweep_bytes()));
    const auto plan = dt::plan_shards(grid(), shard_count, dt::ShardStrategy::Balanced);
    for (std::size_t s = 0; s < plan.size(); ++s) {
      dt::ShardManifest m;
      m.sweep_name = "ci-smoke";
      m.sweep_file = "ci_smoke.json";
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

  /// Move a pending manifest into claimed/<worker>/, without a lease:
  /// a claim parked by hand.
  static fs::path park_claim(const fs::path& root, const std::string& worker,
                             const std::string& shard_name) {
    const fs::path claimed = root / "claimed" / worker;
    fs::create_directories(claimed);
    const fs::path manifest = claimed / (shard_name + ".json");
    fs::rename(root / (shard_name + ".json"), manifest);
    return manifest;
  }

  /// A lease whose renewal mtime is 2 hours stale: expired under any
  /// reasonable TTL.
  static void write_expired_lease(const fs::path& manifest, const std::string& worker,
                                  double ttl_s = 60.0) {
    dt::Lease lease;
    lease.worker_id = worker;
    lease.manifest = manifest.filename().string();
    lease.granted_unix_ms = 1;
    lease.renewed_unix_ms = 1;
    lease.ttl_s = ttl_s;
    const std::string path = dt::lease_path_for(manifest.string());
    dt::write_lease_file(path, lease);
    fs::last_write_time(path, fs::file_time_type::clock::now() - std::chrono::hours(2));
  }

  /// Execute a claimed manifest's full shard into its journal (the state
  /// of a worker that finished every row but never archived).
  static dt::ShardRunOutcome run_claimed_shard(const fs::path& manifest) {
    const dt::ShardManifest m =
        dt::manifest_from_json(ec::Json::parse(ec::read_file(manifest.string())));
    const fs::path journal =
        manifest.parent_path() / (manifest.stem().string() + ".journal.jsonl");
    return dt::run_shard(grid(), m, journal.string(), 2);
  }

  static dt::ReapOptions reap_options(const fs::path& root) {
    dt::ReapOptions opts;
    opts.queue_dir = root.string();
    opts.reaper_id = "test-reaper";
    return opts;
  }

  static void ASSERT_TRUE_OR_THROW(bool ok) {
    if (!ok) throw std::runtime_error("fixture setup failed");
  }
};

}  // namespace

TEST_F(ReaperFixture, LeaseJsonRoundTripsAndRejectsDrift) {
  dt::Lease lease;
  lease.worker_id = "w1";
  lease.manifest = "shard_0.json";
  lease.granted_unix_ms = 1700000000123ull;
  lease.renewed_unix_ms = 1700000000456ull;
  lease.ttl_s = 12.5;
  const dt::Lease back = dt::lease_from_json(dt::to_json(lease));
  EXPECT_EQ(back.worker_id, "w1");
  EXPECT_EQ(back.manifest, "shard_0.json");
  EXPECT_EQ(back.granted_unix_ms, 1700000000123ull);
  EXPECT_EQ(back.renewed_unix_ms, 1700000000456ull);
  EXPECT_DOUBLE_EQ(back.ttl_s, 12.5);

  ec::Json wrong_schema = dt::to_json(lease);
  wrong_schema.set("schema", "drowsy-claim-lease-v999");
  EXPECT_THROW(static_cast<void>(dt::lease_from_json(wrong_schema)), dt::DistribError);

  ec::Json zero_ttl = dt::to_json(lease);
  zero_ttl.set("ttl_s", 0.0);
  EXPECT_THROW(static_cast<void>(dt::lease_from_json(zero_ttl)), dt::DistribError);

  ec::Json extra = dt::to_json(lease);
  extra.set("surprise", true);
  EXPECT_THROW(static_cast<void>(dt::lease_from_json(extra)), dt::DistribError);

  EXPECT_EQ(dt::lease_path_for("/q/claimed/w1/shard_3.json"),
            "/q/claimed/w1/shard_3.lease.json");
}

TEST_F(ReaperFixture, LeaseFileWritesAtomicallyAndReadsBack) {
  const fs::path dir = fs::path(::testing::TempDir()) / "drowsy_lease_io";
  fs::remove_all(dir);
  fs::create_directories(dir);
  dt::Lease lease;
  lease.worker_id = "w1";
  lease.manifest = "shard_0.json";
  lease.granted_unix_ms = 42;
  lease.renewed_unix_ms = 43;
  lease.ttl_s = 5.0;
  const std::string path = (dir / "shard_0.lease.json").string();
  dt::write_lease_file(path, lease);
  EXPECT_FALSE(fs::exists(path + ".tmp")) << "tmp must be renamed away";
  EXPECT_EQ(dt::read_lease_file(path).renewed_unix_ms, 43u);
  EXPECT_THROW(static_cast<void>(dt::read_lease_file((dir / "absent.json").string())),
               dt::DistribError);
}

TEST_F(ReaperFixture, ListClaimsJudgesByTheLeaseAlone) {
  const fs::path root = make_queue("evidence", 2);
  const fs::path leased = park_claim(root, "leased", "shard_0");
  const fs::path bare = park_claim(root, "bare", "shard_1");

  // A fresh lease: the claim reports headroom and is not expired.
  dt::Lease lease;
  lease.worker_id = "leased";
  lease.manifest = "shard_0.json";
  lease.granted_unix_ms = 1;
  lease.renewed_unix_ms = 1;
  lease.ttl_s = 3600.0;
  dt::write_lease_file(dt::lease_path_for(leased.string()), lease);

  auto claims = dt::list_claims(root.string());
  ASSERT_EQ(claims.size(), 2u);  // path order: bare < leased
  EXPECT_EQ(claims[0].worker_id, "bare");
  EXPECT_FALSE(claims[0].has_lease);
  EXPECT_TRUE(claims[0].expired()) << "no lease, nobody vouches for the claim";
  EXPECT_EQ(claims[1].worker_id, "leased");
  EXPECT_TRUE(claims[1].has_lease);
  EXPECT_DOUBLE_EQ(claims[1].lease_ttl_s, 3600.0);
  EXPECT_LT(claims[1].age_s, 60.0);  // lease file just written
  EXPECT_GT(claims[1].lease_remaining_s(), 3500.0);
  EXPECT_FALSE(claims[1].expired());

  // Expire the lease by back-dating its renewal: now the claim is
  // reapable under its own TTL.
  fs::last_write_time(dt::lease_path_for(leased.string()),
                      fs::file_time_type::clock::now() - std::chrono::hours(2));
  claims = dt::list_claims(root.string());
  EXPECT_TRUE(claims[1].expired());
  EXPECT_LT(claims[1].lease_remaining_s(), 0.0);

  // An unreadable lease counts as none: the claim surfaces as expired
  // instead of hiding.
  ASSERT_TRUE(sc::write_file(dt::lease_path_for(leased.string()), "not json"));
  claims = dt::list_claims(root.string());
  ASSERT_EQ(claims.size(), 2u);
  EXPECT_FALSE(claims[1].has_lease);
  EXPECT_TRUE(claims[1].expired());
}

TEST_F(ReaperFixture, LeaselessClaimIsReapedAtOnce) {
  const fs::path root = make_queue("leaseless", 1);
  const fs::path manifest = park_claim(root, "deadworker", "shard_0");

  const dt::ReapOutcome outcome = dt::reap_queue(reap_options(root));
  EXPECT_EQ(outcome.expired, 1u);
  EXPECT_EQ(outcome.reaped, 1u);
  EXPECT_TRUE(fs::exists(root / "shard_0.json"));
  EXPECT_FALSE(fs::exists(manifest));
  const auto reaps = dt::read_reap_journal(root.string());
  ASSERT_EQ(reaps.size(), 1u);
  EXPECT_EQ(reaps[0].age_s, 0.0);
}

// The ISSUE's acceptance test: kill a worker, advance past the lease
// TTL, and the reaper returns its task to the queue exactly once.
TEST_F(ReaperFixture, ExpiredClaimReturnsToTheQueueExactlyOnce) {
  const fs::path root = make_queue("once", 1);
  const fs::path manifest = park_claim(root, "deadworker", "shard_0");
  write_expired_lease(manifest, "deadworker");

  const dt::ReapOutcome first = dt::reap_queue(reap_options(root));
  EXPECT_EQ(first.examined, 1u);
  EXPECT_EQ(first.expired, 1u);
  EXPECT_EQ(first.reaped, 1u);
  EXPECT_TRUE(fs::exists(root / "shard_0.json")) << "manifest back in the queue";
  EXPECT_FALSE(fs::exists(manifest));
  EXPECT_FALSE(fs::exists(dt::lease_path_for(manifest.string())))
      << "dead lease cleaned up";

  // Idempotence: the claim is gone, so a second reap changes nothing.
  const dt::ReapOutcome second = dt::reap_queue(reap_options(root));
  EXPECT_EQ(second.examined, 0u);
  EXPECT_EQ(second.reaped, 0u);
  EXPECT_TRUE(fs::exists(root / "shard_0.json"));

  const auto reaps = dt::read_reap_journal(root.string());
  ASSERT_EQ(reaps.size(), 1u) << "exactly one reap on record";
  EXPECT_EQ(reaps[0].manifest, "shard_0.json");
  EXPECT_EQ(reaps[0].worker_id, "deadworker");
  EXPECT_EQ(reaps[0].reaper_id, "test-reaper");
  EXPECT_GE(reaps[0].age_s, 3600.0);
}

TEST_F(ReaperFixture, ReapPreservesTheJournalValidPrefix) {
  const fs::path root = make_queue("prefix", 1);
  const fs::path manifest = park_claim(root, "deadworker", "shard_0");
  // The dead worker journaled its whole shard (but never archived), then
  // a torn half-row landed at the tail as it died.
  const dt::ShardRunOutcome ran = run_claimed_shard(manifest);
  ASSERT_EQ(ran.executed, grid().size());
  const fs::path claimed_journal = manifest.parent_path() / "shard_0.journal.jsonl";
  {
    std::FILE* f = std::fopen(claimed_journal.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"index\":", f);  // torn tail, no newline
    std::fclose(f);
  }
  write_expired_lease(manifest, "deadworker");

  const dt::ReapOutcome outcome = dt::reap_queue(reap_options(root));
  EXPECT_EQ(outcome.reaped, 1u);
  EXPECT_EQ(outcome.rows_preserved, grid().size());
  EXPECT_FALSE(fs::exists(claimed_journal)) << "dead journal cleaned up";

  // The published snapshot resumes completely: nothing re-executed, and
  // the merge is byte-identical to the single-process run.
  const dt::JournalContents snapshot =
      dt::read_journal((root / "shard_0.journal.jsonl").string());
  EXPECT_EQ(snapshot.entries.size(), grid().size());
  EXPECT_FALSE(snapshot.truncated_tail) << "torn tail must not survive the reap";
  const auto merged = dt::merge_journals(grid(), snapshot.entries);
  EXPECT_EQ(sc::to_csv(merged), sc::to_csv(reference()));
}

TEST_F(ReaperFixture, LiveLeasesAndOwnClaimsAreNeverReaped) {
  const fs::path root = make_queue("skip", 2);
  const fs::path alive = park_claim(root, "alive", "shard_0");
  const fs::path mine = park_claim(root, "me", "shard_1");

  // A live lease protects shard_0.
  dt::Lease lease;
  lease.worker_id = "alive";
  lease.manifest = "shard_0.json";
  lease.granted_unix_ms = 1;
  lease.renewed_unix_ms = 1;
  lease.ttl_s = 3600.0;
  dt::write_lease_file(dt::lease_path_for(alive.string()), lease);
  // shard_1 is expired, but it belongs to the caller (skip_worker).
  write_expired_lease(mine, "me");

  dt::ReapOptions opts = reap_options(root);
  opts.skip_worker = "me";
  const dt::ReapOutcome outcome = dt::reap_queue(opts);
  EXPECT_EQ(outcome.examined, 2u);
  EXPECT_EQ(outcome.expired, 0u) << "skip_worker claims are not even counted";
  EXPECT_EQ(outcome.reaped, 0u);
  EXPECT_TRUE(fs::exists(alive));
  EXPECT_TRUE(fs::exists(mine));
  EXPECT_TRUE(dt::read_reap_journal(root.string()).empty());
}

TEST_F(ReaperFixture, DryRunReportsWithoutChangingTheQueue) {
  const fs::path root = make_queue("dry", 1);
  const fs::path manifest = park_claim(root, "deadworker", "shard_0");
  write_expired_lease(manifest, "deadworker");

  dt::ReapOptions opts = reap_options(root);
  opts.dry_run = true;
  const dt::ReapOutcome outcome = dt::reap_queue(opts);
  EXPECT_EQ(outcome.expired, 1u);
  EXPECT_EQ(outcome.reaped, 1u) << "dry run reports what it would reap";
  EXPECT_TRUE(fs::exists(manifest)) << "claim untouched";
  EXPECT_TRUE(fs::exists(dt::lease_path_for(manifest.string())));
  EXPECT_FALSE(fs::exists(root / "shard_0.json"));
  EXPECT_TRUE(dt::read_reap_journal(root.string()).empty());
}

// The reap-vs-late-worker race, half one: a not-actually-dead owner
// still holds an open descriptor on its journal.  The reaper copies the
// valid prefix to a fresh inode, so the late append lands on the dead
// inode and the re-enqueued journal stays exactly the snapshot.
TEST_F(ReaperFixture, LateWorkerAppendsLandOnTheDeadInode) {
  const fs::path root = make_queue("inode", 1);
  const fs::path manifest = park_claim(root, "slowworker", "shard_0");
  static_cast<void>(run_claimed_shard(manifest));
  const fs::path claimed_journal = manifest.parent_path() / "shard_0.journal.jsonl";
  const dt::JournalContents before = dt::read_journal(claimed_journal.string());
  ASSERT_EQ(before.entries.size(), grid().size());
  write_expired_lease(manifest, "slowworker");

  // The late worker's writer, opened before the reap strikes.
  dt::JournalWriter late_writer(claimed_journal.string(), before.valid_bytes);
  const dt::ReapOutcome outcome = dt::reap_queue(reap_options(root));
  ASSERT_EQ(outcome.reaped, 1u);

  // The zombie appends once more — onto the unlinked inode.
  late_writer.append(before.entries.front());

  const dt::JournalContents published =
      dt::read_journal((root / "shard_0.journal.jsonl").string());
  EXPECT_EQ(published.entries.size(), grid().size())
      << "late append must not reach the re-enqueued journal";
  const auto merged = dt::merge_journals(grid(), published.entries);
  EXPECT_EQ(sc::to_csv(merged), sc::to_csv(reference()));
}

// The race, half two: the late worker finishes *after* its claim was
// reaped and re-executed, and archives its own journal over done/.  The
// duplicate is detectable (cover_grid counts it) and harmless: the CSV
// reduced from either complete journal is the canonical bytes.
TEST_F(ReaperFixture, LateArchiveAfterReExecutionKeepsTheCanonicalCsv) {
  const fs::path root = make_queue("race", 1);
  const fs::path manifest = park_claim(root, "slowworker", "shard_0");
  static_cast<void>(run_claimed_shard(manifest));
  const fs::path claimed_journal = manifest.parent_path() / "shard_0.journal.jsonl";
  const std::string late_copy = ec::read_file(claimed_journal.string());
  write_expired_lease(manifest, "slowworker");
  ASSERT_EQ(dt::reap_queue(reap_options(root)).reaped, 1u);

  // Force full re-execution by the new owner: drop the published
  // snapshot so its journal is fresh work, not an adopted byte-copy.
  fs::remove(root / "shard_0.journal.jsonl");
  dt::DaemonOptions daemon = {};
  daemon.queue_dir = root.string();
  daemon.worker_id = "w2";
  daemon.threads = 2;
  daemon.max_idle_s = 1.0;
  daemon.poll_ms = 25;
  const dt::DaemonOutcome ran = dt::run_daemon(daemon);
  ASSERT_EQ(ran.completed, 1u);
  const fs::path done_journal = root / "done" / "shard_0.journal.jsonl";
  const std::string csv_before = [&] {
    const auto rows = dt::read_journal(done_journal.string()).entries;
    return sc::to_csv(dt::merge_journals(grid(), rows));
  }();
  EXPECT_EQ(csv_before, sc::to_csv(reference()));

  // Concatenating both complete journals is a detected duplicate, never
  // a silent double-count.
  std::vector<dt::JournalEntry> both = dt::read_journal(done_journal.string()).entries;
  const auto late_rows = dt::read_journal(claimed_journal.string());  // gone: empty
  EXPECT_TRUE(late_rows.entries.empty());
  ASSERT_TRUE(sc::write_file((root / "late.journal.jsonl").string(), late_copy));
  const auto late = dt::read_journal((root / "late.journal.jsonl").string()).entries;
  both.insert(both.end(), late.begin(), late.end());
  const dt::Coverage cov = dt::cover_grid(grid(), both);
  EXPECT_FALSE(cov.duplicates.empty());
  EXPECT_THROW(static_cast<void>(dt::merge_journals(grid(), both)), dt::DistribError);

  // The late worker's archive replaces done/ wholesale (rename).  Its
  // journal is also complete, so the canonical CSV is unchanged.
  fs::rename(root / "late.journal.jsonl", done_journal);
  const auto rows = dt::read_journal(done_journal.string()).entries;
  EXPECT_EQ(sc::to_csv(dt::merge_journals(grid(), rows)), csv_before);
}

TEST_F(ReaperFixture, ReapJournalToleratesATornTail) {
  const fs::path root = make_queue("tornreap", 1);
  const fs::path manifest = park_claim(root, "deadworker", "shard_0");
  write_expired_lease(manifest, "deadworker");
  ASSERT_EQ(dt::reap_queue(reap_options(root)).reaped, 1u);

  // A reaper that died mid-append leaves half a row; history before the
  // tear is still served.
  const fs::path journal = root / "reaped" / "reap.journal.jsonl";
  std::FILE* f = std::fopen(journal.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"manifest\":\"sha", f);
  std::fclose(f);
  const auto reaps = dt::read_reap_journal(root.string());
  ASSERT_EQ(reaps.size(), 1u);
  EXPECT_EQ(reaps[0].manifest, "shard_0.json");

  // An empty or absent journal reads as empty history.
  EXPECT_TRUE(dt::read_reap_journal(
                  make_queue("tornreap_fresh", 1).string()).empty());
}
