// One shard task, from manifest file to journal, with crash resume.
//
// load_shard_task() turns a manifest path into runnable work: parse the
// manifest, find and load its sweep, expand the grid and validate the
// manifest against it.  run_shard() then takes the grid and manifest,
// figures out which of the shard's jobs already have journal rows,
// truncates any torn tail, and runs only the remainder — appending each
// result to the journal the moment it finishes.  Killing the process at
// any point and calling run_shard() again converges on a complete
// journal without re-running finished jobs and without duplicate rows.
//
// `drowsy_sweep shard run` and the queue daemon (daemon.hpp) both go
// through these two calls; the daemon adds only the claim, the lease and
// the archive step around them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "distrib/journal.hpp"
#include "distrib/shard.hpp"
#include "scenario/batch_runner.hpp"

namespace drowsy::distrib {

/// A manifest ready to run: its sweep found, loaded and expanded, and the
/// manifest validated against that grid.
struct ShardTask {
  ShardManifest manifest;
  std::vector<scenario::BatchJob> grid;  ///< the sweep's full expanded grid
};

/// Load the manifest at `manifest_path` and the sweep it names.  The
/// manifest's `sweep_file` is looked up by basename in `lookup_dir`
/// first (the queue root, or the manifest's own directory), then as the
/// recorded path.  Errors name the file at fault; a drifted sweep (hash,
/// size, index bounds) is a DistribError from validate_manifest().
[[nodiscard]] ShardTask load_shard_task(const std::string& manifest_path,
                                        const std::string& lookup_dir);

/// Journal rows per encoded JobKey, after proving they fit the shard:
/// every row's key must be one of the manifest's jobs, and no key may
/// have more rows than the shard has slots for it (a grid may hold one
/// key in several slots).  Anything else means the rows belong to other
/// work; throws DistribError naming `journal_path`.
[[nodiscard]] std::map<std::string, std::size_t> count_shard_rows(
    const std::vector<JobKey>& grid_keys, const ShardManifest& manifest,
    const std::vector<JournalEntry>& entries, const std::string& journal_path);

/// What one run_shard() invocation did (counts, not results — the
/// results live in the journal).
struct ShardRunOutcome {
  std::size_t shard_jobs = 0;  ///< jobs assigned to this shard
  std::size_t resumed = 0;     ///< already journaled; skipped
  std::size_t executed = 0;    ///< run in this invocation
  std::uint64_t trace_hits = 0;
  std::uint64_t trace_misses = 0;
};

/// Execute the manifest's outstanding jobs against `grid` (the full
/// expanded job grid), journaling to `journal_path`.  An existing journal
/// must pass count_shard_rows() — running on top of rows for different
/// work would manufacture a merge failure later.  `threads` = 0
/// picks hardware concurrency.  Throws DistribError on journal problems;
/// run exceptions propagate from BatchRunner.  Each journaled row carries
/// the run's measured wall-clock (`wall_ms`) for cost-model feedback.
///
/// `probe` (optional) is attached to every executed run — resumed jobs
/// never see it.  `on_row` (optional) fires after each journal append,
/// serialized under BatchRunner's completion mutex; the queue daemon
/// hangs its per-job metrics flush off this hook so a worker's snapshot
/// stays fresh even through a single long task.  Neither affects the
/// journaled results (probes are pure observers).
///
/// Process-safety: at most one run_shard() may own `journal_path` at a
/// time (it truncates and appends); the queue daemon's rename-based
/// claiming provides that exclusivity across machines.  Within the call,
/// worker threads append under BatchRunner's completion mutex.
[[nodiscard]] ShardRunOutcome run_shard(
    const std::vector<scenario::BatchJob>& grid, const ShardManifest& manifest,
    const std::string& journal_path, std::size_t threads = 0,
    const scenario::RunProbe& probe = {},
    const std::function<void(const JournalEntry&)>& on_row = {});

}  // namespace drowsy::distrib
