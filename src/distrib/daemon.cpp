#include "distrib/daemon.hpp"

#include <chrono>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "distrib/fault.hpp"
#include "distrib/lease.hpp"
#include "distrib/reaper.hpp"
#include "distrib/shard_runner.hpp"
#include "expctl/spec_io.hpp"
#include "obs/snapshot.hpp"
#include "scenario/probes.hpp"
#include "util/log.hpp"

namespace drowsy::distrib {

namespace ec = drowsy::expctl;
namespace fs = std::filesystem;
namespace sc = drowsy::scenario;

namespace {

void emit(const DaemonOptions& options, const std::string& line) {
  if (options.on_event) options.on_event(line);
}

/// Move `from` to `dir`/basename, replacing any previous occupant (a
/// re-enqueued task supersedes its old terminal record).
void move_into(const fs::path& from, const fs::path& dir) {
  fs::rename(from, dir / from.filename());
}

/// The worker-side state one run_daemon() call operates on.
struct Queue {
  const DaemonOptions& options;
  fs::path root;
  fs::path claimed;  ///< root/claimed/<worker_id>
  fs::path done;
  fs::path failed;
  fs::path metrics_file;  ///< root/metrics/<worker_id>.json

  // The worker's running totals, flushed to metrics_file.  run_shard's
  // probe folds event profiles from BatchRunner worker threads, so every
  // touch goes through snap_mutex.
  obs::WorkerSnapshot snap;
  std::mutex snap_mutex;

  // Leases this worker currently holds, keyed by lease-file path.  ALL
  // of them are renewed at every checkpoint — a leftover claim queued
  // behind a long task must not expire while its owner is alive and
  // merely busy.  Guarded by snap_mutex.
  std::map<std::string, Lease> leases;

  explicit Queue(const DaemonOptions& opts) : options(opts), root(opts.queue_dir) {
    if (!fs::is_directory(root)) {
      throw DistribError("queue directory " + root.string() + " does not exist");
    }
    if (options.worker_id.empty() ||
        options.worker_id.find('/') != std::string::npos) {
      throw DistribError("worker id must be non-empty and contain no '/'");
    }
    claimed = root / "claimed" / options.worker_id;
    done = root / "done";
    failed = root / "failed";
    std::error_code ec_ignored;
    fs::create_directories(claimed, ec_ignored);
    fs::create_directories(done, ec_ignored);
    fs::create_directories(failed, ec_ignored);
    if (!fs::is_directory(claimed) || !fs::is_directory(done) || !fs::is_directory(failed)) {
      throw DistribError("cannot create queue subdirectories under " + root.string());
    }
    metrics_file = root / "metrics" / (options.worker_id + ".json");
    snap.worker_id = options.worker_id;
  }

  /// Renew every held lease and rewrite the metrics snapshot (both
  /// atomic tmp+rename).  The lease file's mtime is the renewal instant
  /// the reaper compares against; the snapshot is for observers only.
  /// Both are advisory: a transiently unwritable directory must not kill
  /// the daemon (at worst the claim gets reaped and re-converges via the
  /// journal), so failures are logged and swallowed.  Caller must hold
  /// snap_mutex (or be the daemon thread with no task in flight).
  void checkpoint_locked() {
    snap.updated_unix_ms = obs::wall_clock_unix_ms();
    try {
      obs::write_snapshot_file(metrics_file.string(), snap);
    } catch (const std::exception& e) {
      DROWSY_LOG_WARN("daemon", "cannot write metrics snapshot %s: %s",
                      metrics_file.string().c_str(), e.what());
    }
    for (auto& [path, lease] : leases) {
      lease.renewed_unix_ms = snap.updated_unix_ms;
      try {
        write_lease_file(path, lease);
      } catch (const std::exception& e) {
        DROWSY_LOG_WARN("daemon", "cannot renew lease %s: %s", path.c_str(),
                        e.what());
      }
    }
  }

  void checkpoint() {
    const std::lock_guard<std::mutex> lock(snap_mutex);
    checkpoint_locked();
  }

  /// Grant (or re-grant, on crash resume) the lease for a manifest at
  /// `manifest_path` in our claimed/ directory and start renewing it at
  /// every checkpoint.  Granted before the claim rename, so no claim is
  /// ever visible without its lease.
  void grant_lease(const fs::path& manifest_path) {
    Lease lease;
    lease.worker_id = options.worker_id;
    lease.manifest = manifest_path.filename().string();
    lease.granted_unix_ms = obs::wall_clock_unix_ms();
    lease.renewed_unix_ms = lease.granted_unix_ms;
    lease.ttl_s = options.lease_ttl_s;
    const std::string path = lease_path_for(manifest_path.string());
    try {
      write_lease_file(path, lease);
    } catch (const std::exception& e) {
      DROWSY_LOG_WARN("daemon", "cannot grant lease %s: %s", path.c_str(), e.what());
    }
    const std::lock_guard<std::mutex> lock(snap_mutex);
    leases.emplace(path, std::move(lease));
  }

  /// Drop the lease of a manifest leaving claimed/ (archived, failed, or
  /// never claimed because another daemon won the rename).
  void release_lease(const fs::path& manifest_path) {
    const std::string path = lease_path_for(manifest_path.string());
    {
      const std::lock_guard<std::mutex> lock(snap_mutex);
      leases.erase(path);
    }
    std::error_code ignored;
    fs::remove(path, ignored);
  }

  [[nodiscard]] bool stop_requested() const { return fs::exists(root / "STOP"); }

  /// Pending-task candidates: ".json" files in the queue root that parse
  /// as manifests, in filename order (deterministic claim order).  Files
  /// that do not parse — the sweep file, a half-copied manifest — are
  /// skipped without claiming, so they are never at risk of being moved.
  [[nodiscard]] std::vector<fs::path> pending() const {
    std::set<fs::path> names;
    for (const fs::directory_entry& entry : fs::directory_iterator(root)) {
      if (!entry.is_regular_file() || entry.path().extension() != ".json") continue;
      try {
        static_cast<void>(
            manifest_from_json(ec::Json::parse(ec::read_file(entry.path().string()))));
      } catch (const std::exception&) {
        continue;  // not (yet) a manifest
      }
      names.insert(entry.path());
    }
    return {names.begin(), names.end()};
  }

  /// Adopt a reaper-published journal snapshot: a re-enqueued manifest
  /// may arrive with <queue>/<stem>.journal.jsonl beside it, holding the
  /// rows its dead previous owner already finished.  Move it into our
  /// claimed/ directory so run_shard resumes instead of re-executing —
  /// but only after the same count_shard_rows() check run_shard makes,
  /// because there a foreign row is a hard error and the task would be
  /// quarantined to failed/.  A snapshot that does not fit (stale file
  /// from an earlier queue generation under the same name) is deleted:
  /// leaving it would trip every future claim too.
  void adopt_reaped_journal(const fs::path& manifest_path, const fs::path& journal,
                            const ShardManifest& manifest,
                            const std::vector<sc::BatchJob>& grid) {
    const fs::path orphan = root / journal.filename();
    std::error_code ec_exists;
    if (fs::exists(journal, ec_exists) || !fs::exists(orphan, ec_exists)) return;
    try {
      const JournalContents contents = read_journal(orphan.string());
      static_cast<void>(
          count_shard_rows(job_keys(grid), manifest, contents.entries, orphan.string()));
      fs::rename(orphan, journal);
      DROWSY_CRASH_POINT("daemon.after_adopt");
      emit(options, "adopted journal for " + manifest_path.filename().string() +
                        " (" + std::to_string(contents.entries.size()) + " rows)");
    } catch (const std::exception& e) {
      DROWSY_LOG_WARN("daemon", "discarding foreign journal snapshot %s: %s",
                      orphan.string().c_str(), e.what());
      std::error_code ignored;
      fs::remove(orphan, ignored);
    }
  }

  /// Execute one claimed manifest to completion and archive it.  Returns
  /// true on success; on failure the task lands in failed/ with its
  /// diagnosis and false is returned.  Only queue-unusable conditions
  /// propagate as exceptions.
  bool execute(const fs::path& manifest_path) {
    const fs::path journal = journal_path_for(manifest_path.string());
    try {
      const ShardTask task = load_shard_task(manifest_path.string(), root.string());
      adopt_reaped_journal(manifest_path, journal, task.manifest, task.grid);
      // The profile probe folds each run's event-core profile into the
      // snapshot; the on_row hook checkpoints after every journal append,
      // so the leases stay renewed through a single long task.
      const sc::RunProbe probe = sc::profile_probe([this](const obs::EventProfile& p) {
        const std::lock_guard<std::mutex> lock(snap_mutex);
        snap.profile.merge(p);
      });
      const ShardRunOutcome outcome = run_shard(
          task.grid, task.manifest, journal.string(), options.threads, probe,
          [this](const JournalEntry&) {
            const std::lock_guard<std::mutex> lock(snap_mutex);
            ++snap.jobs_done;
            ++snap.journal_rows;
            checkpoint_locked();
          });
      DROWSY_CRASH_POINT("daemon.before_archive");
      move_into(journal, done);
      DROWSY_CRASH_POINT("daemon.mid_archive");
      move_into(manifest_path, done);
      release_lease(manifest_path);
      {
        const std::lock_guard<std::mutex> lock(snap_mutex);
        ++snap.tasks_done;
        snap.trace_cache_hits += outcome.trace_hits;
        snap.trace_cache_misses += outcome.trace_misses;
        checkpoint_locked();
      }
      emit(options, "done " + manifest_path.filename().string() + " (resumed " +
                        std::to_string(outcome.resumed) + ", executed " +
                        std::to_string(outcome.executed) + ")");
      return true;
    } catch (const std::exception& e) {
      // Archive the evidence; a broken task must not wedge the queue.
      std::error_code ec_ignored;
      if (fs::exists(journal, ec_ignored)) {
        fs::rename(journal, failed / journal.filename(), ec_ignored);
      }
      fs::rename(manifest_path, failed / manifest_path.filename(), ec_ignored);
      release_lease(manifest_path);
      const fs::path note = failed / (manifest_path.stem().string() + ".error.txt");
      static_cast<void>(sc::write_file(note.string(), std::string(e.what()) + "\n"));
      {
        const std::lock_guard<std::mutex> lock(snap_mutex);
        ++snap.tasks_failed;
        checkpoint_locked();
      }
      emit(options, "failed " + manifest_path.filename().string() + ": " + e.what());
      return false;
    }
  }
};

}  // namespace

DaemonOutcome run_daemon(const DaemonOptions& options) {
  Queue queue(options);
  DaemonOutcome outcome;
  queue.checkpoint();  // the snapshot exists from the first moment on duty

  // Crash recovery: a previous daemon with this worker id may have died
  // owning tasks.  Finish them (the journal resume makes this converge)
  // before competing for new work.  Content-checked like pending(): the
  // claimed/ directory also holds journals and lease files, which must
  // never be mistaken for tasks (and quarantined to failed/).  A lease
  // without its manifest is the trace of a death between grant and
  // claim rename; the task is still pending, so the lease just goes.
  std::set<fs::path> leftovers;
  std::vector<fs::path> orphan_leases;
  for (const fs::directory_entry& entry : fs::directory_iterator(queue.claimed)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".json") continue;
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".lease.json")) {
      const std::string stem = name.substr(0, name.size() - std::strlen(".lease.json"));
      if (!fs::exists(queue.claimed / (stem + ".json"))) orphan_leases.push_back(entry.path());
      continue;
    }
    try {
      static_cast<void>(manifest_from_json(
          ec::Json::parse(ec::read_file(entry.path().string()))));
    } catch (const std::exception&) {
      continue;  // a journal or stray file — not a claim
    }
    leftovers.insert(entry.path());
  }
  for (const fs::path& lease : orphan_leases) {
    std::error_code ignored;
    fs::remove(lease, ignored);
  }
  // Re-grant every leftover lease up front (the crash left them aging),
  // so the ones queued behind the first stay renewed while it runs.
  for (const fs::path& manifest : leftovers) queue.grant_lease(manifest);
  for (const fs::path& manifest : leftovers) {
    emit(options, "resuming claimed " + manifest.filename().string());
    queue.execute(manifest) ? ++outcome.completed : ++outcome.failed;
  }

  auto last_work = std::chrono::steady_clock::now();
  for (;;) {
    if (queue.stop_requested()) {
      emit(options, "STOP sentinel observed — exiting");
      outcome.exit = DaemonExit::Stopped;
      return outcome;
    }
    bool worked = false;
    for (const fs::path& candidate : queue.pending()) {
      const fs::path mine = queue.claimed / candidate.filename();
      queue.grant_lease(mine);
      DROWSY_CRASH_POINT("daemon.after_lease");
      std::error_code race;
      fs::rename(candidate, mine, race);
      if (race) {  // another daemon claimed it first
        queue.release_lease(mine);
        continue;
      }
      DROWSY_CRASH_POINT("daemon.after_claim");
      emit(options, "claimed " + candidate.filename().string());
      queue.execute(mine) ? ++outcome.completed : ++outcome.failed;
      worked = true;
      break;  // re-check STOP between tasks
    }
    // Opportunistic reaping: with nothing to claim, return any expired
    // claims of *other* workers to the queue.  A successful reap counts
    // as work — the re-enqueued task should be claimed before the idle
    // timeout fires.
    if (!worked && options.reap) {
      ReapOptions reap_options;
      reap_options.queue_dir = options.queue_dir;
      reap_options.reaper_id = options.worker_id;
      reap_options.skip_worker = options.worker_id;
      if (options.on_event) {
        reap_options.on_event = [&options](const std::string& line) {
          options.on_event("reap: " + line);
        };
      }
      try {
        const ReapOutcome reaped = reap_queue(reap_options);
        if (reaped.reaped > 0) {
          outcome.reaped += reaped.reaped;
          worked = true;
        }
      } catch (const std::exception& e) {
        DROWSY_LOG_WARN("daemon", "opportunistic reap failed: %s", e.what());
      }
    }
    if (worked) {
      last_work = std::chrono::steady_clock::now();
      continue;
    }
    const double idle_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - last_work).count();
    if (options.max_idle_s > 0.0 && idle_s >= options.max_idle_s) {
      emit(options, "idle for " + std::to_string(idle_s) + " s — exiting");
      outcome.exit = DaemonExit::Idle;
      return outcome;
    }
    queue.checkpoint();
    std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
  }
}

}  // namespace drowsy::distrib
