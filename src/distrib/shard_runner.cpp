#include "distrib/shard_runner.hpp"

#include <filesystem>

#include "expctl/spec_io.hpp"

namespace drowsy::distrib {

namespace ec = drowsy::expctl;
namespace fs = std::filesystem;
namespace sc = drowsy::scenario;

ShardTask load_shard_task(const std::string& manifest_path, const std::string& lookup_dir) {
  ShardTask task;
  const std::string manifest_bytes = ec::read_file(manifest_path);
  try {
    task.manifest = manifest_from_json(ec::Json::parse(manifest_bytes));
  } catch (const ec::JsonError& e) {
    throw DistribError(manifest_path + ": " + e.what());
  } catch (const DistribError& e) {
    throw DistribError(manifest_path + ": " + e.what());
  }
  const fs::path recorded(task.manifest.sweep_file);
  const fs::path local = fs::path(lookup_dir) / recorded.filename();
  const fs::path sweep_path = fs::exists(local) ? local : recorded;
  if (!fs::exists(sweep_path)) {
    throw DistribError("sweep file " + task.manifest.sweep_file + " not found (looked for " +
                       local.string() + " and the recorded path)");
  }
  const ec::LoadedSweep loaded = ec::load_sweep(sweep_path.string());
  task.grid = ec::expand(loaded.sweep);
  validate_manifest(task.manifest, loaded.bytes, task.grid.size());
  return task;
}

std::map<std::string, std::size_t> count_shard_rows(const std::vector<JobKey>& grid_keys,
                                                    const ShardManifest& manifest,
                                                    const std::vector<JournalEntry>& entries,
                                                    const std::string& journal_path) {
  // Per-key accounting, not a key set: a grid may hold the same
  // (spec-hash, policy, seed) in several slots (a sweep listing one
  // scenario twice), and cover_grid() fills such slots first-come-
  // first-served — resume must count rows the same way or it would mark
  // both slots done off a single row.
  std::map<std::string, std::size_t> owned_slots;
  for (const std::size_t i : manifest.job_indices) {
    ++owned_slots[grid_keys[i].encode()];
  }
  std::map<std::string, std::size_t> rows;
  for (const JournalEntry& entry : entries) {
    const std::string key = entry.key.encode();
    const auto it = owned_slots.find(key);
    if (it == owned_slots.end()) {
      throw DistribError("journal " + journal_path + " contains a row for " + key +
                         " which is not in shard " + std::to_string(manifest.shard_index) +
                         " — wrong journal for this manifest?");
    }
    if (++rows[key] > it->second) {
      throw DistribError("journal " + journal_path + " contains more rows for " + key +
                         " than shard " + std::to_string(manifest.shard_index) +
                         " owns — refusing to append more");
    }
  }
  return rows;
}

ShardRunOutcome run_shard(const std::vector<sc::BatchJob>& grid,
                          const ShardManifest& manifest, const std::string& journal_path,
                          std::size_t threads, const sc::RunProbe& probe,
                          const std::function<void(const JournalEntry&)>& on_row) {
  ShardRunOutcome outcome;
  outcome.shard_jobs = manifest.job_indices.size();

  const std::vector<JobKey> grid_keys = job_keys(grid);
  const JournalContents journal = read_journal(journal_path);
  const std::map<std::string, std::size_t> journaled =
      count_shard_rows(grid_keys, manifest, journal.entries, journal_path);

  // Outstanding work, in grid order.  Parallel lists: to_run[j] is the
  // grid job at grid index run_indices[j].  The first journaled[key]
  // slots of each key count as resumed (matching cover_grid's order).
  std::vector<sc::BatchJob> to_run;
  std::vector<std::size_t> run_indices;
  std::map<std::string, std::size_t> resumed_slots;
  for (const std::size_t i : manifest.job_indices) {
    const std::string key = grid_keys[i].encode();
    const auto it = journaled.find(key);
    if (it != journaled.end() && resumed_slots[key] < it->second) {
      ++resumed_slots[key];
      ++outcome.resumed;
    } else {
      to_run.push_back(grid[i]);
      run_indices.push_back(i);
    }
  }
  outcome.executed = to_run.size();
  if (to_run.empty()) return outcome;  // nothing to do; leave the journal untouched

  JournalWriter writer(journal_path, journal.valid_bytes);
  sc::BatchRunner runner(threads);
  // The callback runs under BatchRunner's completion mutex, so appends
  // never interleave and on_row sees each entry exactly once, post-append.
  static_cast<void>(runner.run(
      to_run,
      [&](std::size_t j, const sc::RunResult& result, double wall_ms) {
        JournalEntry entry;
        entry.index = run_indices[j];
        entry.key = grid_keys[run_indices[j]];
        entry.result = result;
        entry.wall_ms = wall_ms;
        writer.append(entry);
        if (on_row) on_row(entry);
      },
      probe));
  outcome.trace_hits = runner.last_trace_hits();
  outcome.trace_misses = runner.last_trace_misses();
  return outcome;
}

}  // namespace drowsy::distrib
